#ifndef CCDB_COMMON_VEC_H_
#define CCDB_COMMON_VEC_H_

#include <cstddef>
#include <span>
#include <vector>

namespace ccdb {

/// Dense vector kernels used throughout the factorization and SVM code.
/// All functions operate on std::span<const double> so they work on raw
/// matrix rows without copies; sizes must match (checked).
///
/// The hot kernels (Dot, SquaredDistance, SquaredNorm and the batch
/// primitives below) are written as 4-wide unrolled loops with independent
/// accumulators: the unroll breaks the additive dependency chain so the
/// compiler can keep 4 FMA pipes busy and auto-vectorize the body. The
/// summation order differs from a naive left-to-right loop by O(n·eps)
/// relative — property tests pin the parity at 1e-10.

/// Dot product of x and y.
double Dot(std::span<const double> x, std::span<const double> y);

/// Squared Euclidean distance ‖x − y‖².
double SquaredDistance(std::span<const double> x, std::span<const double> y);

/// Euclidean distance ‖x − y‖.
double Distance(std::span<const double> x, std::span<const double> y);

/// Euclidean norm ‖x‖.
double Norm(std::span<const double> x);

/// Squared Euclidean norm ‖x‖².
double SquaredNorm(std::span<const double> x);

/// x *= alpha.
void Scale(double alpha, std::span<double> x);

/// Sum of all entries.
double Sum(std::span<const double> x);

/// Arithmetic mean; requires non-empty input.
double Mean(std::span<const double> x);

/// Population variance (divides by n); requires non-empty input.
double Variance(std::span<const double> x);

/// Pearson correlation of two equally sized, non-constant samples.
/// Returns 0 if either sample has zero variance.
double PearsonCorrelation(std::span<const double> x,
                          std::span<const double> y);

/// Normalizes x to unit Euclidean norm in place; leaves zero vectors alone.
void NormalizeInPlace(std::span<double> x);

// ------------------------------------------------------------------
// Batch primitives: one query vector against many row-major matrix rows
// in a single pass. `rows` holds num_rows contiguous rows of `cols`
// doubles each (a Matrix::Data() view); `out` receives one value per row.
// These are the building blocks of the GEMV-like kernel sweeps (norm-trick
// RBF rows, batched SVM prediction) and the blocked kNN scans.

/// out[r] = rows_r · x for every row.
void DotBatch(std::span<const double> rows, std::size_t num_rows,
              std::size_t cols, std::span<const double> x,
              std::span<double> out);

/// out[r] = ‖rows_r − x‖² for every row (direct differencing — exact, no
/// norm-trick cancellation; use this when small distances matter, e.g.
/// nearest-neighbor scans).
void SquaredDistanceToRows(std::span<const double> rows, std::size_t num_rows,
                           std::size_t cols, std::span<const double> x,
                           std::span<double> out);

/// out[r] = ‖rows_r‖² for every row — the precomputation that turns an RBF
/// kernel row into one DotBatch sweep via
///   ‖x − z‖² = ‖x‖² + ‖z‖² − 2·x·z.
void RowSquaredNorms(std::span<const double> rows, std::size_t num_rows,
                     std::size_t cols, std::span<double> out);

// ------------------------------------------------------------------
// Quad-query primitives: four query vectors against the same rows in one
// pass. Each candidate row is loaded once and serves four queries (4×
// less row traffic than four single-query sweeps), and the four lanes
// give the compiler a clean broadcast-row × query-vector FMA body. Per
// (row, query) pair the summation order is IDENTICAL to the single-query
// kernels above, so quad results are bit-identical to four DotBatch /
// SquaredDistanceToRows calls — callers may mix the two freely (e.g. for
// tail groups smaller than four).

/// Packs four equal-length query vectors into the lane-interleaved layout
/// the quad kernels consume: out[c*4 + q] = x_q[c].
void InterleaveQuad(std::span<const double> x0, std::span<const double> x1,
                    std::span<const double> x2, std::span<const double> x3,
                    std::span<double> out);

/// out[r*4 + q] = rows_r · x_q. `interleaved` is the InterleaveQuad
/// packing of the four queries (size 4·cols); `out` has size 4·num_rows.
void DotBatchQuad(std::span<const double> rows, std::size_t num_rows,
                  std::size_t cols, std::span<const double> interleaved,
                  std::span<double> out);

/// out[r*4 + q] = ‖rows_r − x_q‖² (direct differencing, like
/// SquaredDistanceToRows).
void SquaredDistanceToRowsQuad(std::span<const double> rows,
                               std::size_t num_rows, std::size_t cols,
                               std::span<const double> interleaved,
                               std::span<double> out);

}  // namespace ccdb

#endif  // CCDB_COMMON_VEC_H_
