#ifndef CCDB_EVAL_NEIGHBORS_H_
#define CCDB_EVAL_NEIGHBORS_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "common/cancellation.h"
#include "common/matrix.h"

namespace ccdb::eval {

/// A neighbor hit: row index plus Euclidean distance from the query row.
struct Neighbor {
  std::size_t index = 0;
  double distance = 0.0;
};

/// Returns the k nearest rows of `points` to row `query` (excluding the
/// query itself), ordered by ascending Euclidean distance. Used for the
/// Table 2 demonstration and the Sec. 4.2 space-quality probe.
///
/// The scan is blocked: squared distances to a block of candidate rows are
/// computed in one vectorized SquaredDistanceToRows pass, the bounded
/// max-heap operates on squared distances (monotone in the true distance),
/// and the square root is taken only for the final k results.
std::vector<Neighbor> KNearestNeighbors(const Matrix& points,
                                        std::size_t query, std::size_t k);

/// Fraction of each item's k nearest neighbors that share at least one
/// ground-truth label with the item, averaged over `queries`. Labels are
/// given as per-item bitsets (outer index = item, inner = label id).
/// Measures whether the space is perceptually coherent (Table 2's point).
/// Queries are scanned in groups of four that share every candidate-row
/// load (one SquaredDistanceToRowsQuad sweep per block, ~4× less matrix
/// traffic than per-query scans); each group's neighbor lists are
/// bit-identical to per-query KNearestNeighbors calls. The groups are
/// parallelized on the shared thread pool for large scans; the result is
/// independent of the thread count (per-query counts are integers, so the
/// aggregation is exact in any order).
double NeighborLabelCoherence(
    const Matrix& points, const std::vector<std::vector<bool>>& item_labels,
    const std::vector<std::size_t>& queries, std::size_t k);

/// Cancellation-aware variant: probes `stop` between queries and returns
/// nullopt when it fired mid-scan.
std::optional<double> NeighborLabelCoherence(
    const Matrix& points, const std::vector<std::vector<bool>>& item_labels,
    const std::vector<std::size_t>& queries, std::size_t k,
    const StopCondition& stop);

}  // namespace ccdb::eval

#endif  // CCDB_EVAL_NEIGHBORS_H_
