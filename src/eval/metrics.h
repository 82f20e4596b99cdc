#ifndef CCDB_EVAL_METRICS_H_
#define CCDB_EVAL_METRICS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace ccdb::eval {

/// 2x2 confusion counts for a binary classification task.
struct ConfusionCounts {
  std::size_t true_positive = 0;
  std::size_t true_negative = 0;
  std::size_t false_positive = 0;
  std::size_t false_negative = 0;

  std::size_t total() const {
    return true_positive + true_negative + false_positive + false_negative;
  }
};

/// Tallies predictions against ground truth (equal-sized spans).
ConfusionCounts CountConfusion(const std::vector<bool>& predicted,
                               const std::vector<bool>& actual);

/// Fraction of correct predictions; 0 when empty.
double Accuracy(const ConfusionCounts& counts);

/// Accuracy on the truly-positive population (a.k.a. recall); 0 when there
/// are no positives.
double Sensitivity(const ConfusionCounts& counts);

/// Accuracy on the truly-negative population; 0 when there are no negatives.
double Specificity(const ConfusionCounts& counts);

/// Geometric mean of sensitivity and specificity — the paper's measure for
/// imbalanced genre classification (Sec. 4.3, citing He & Garcia).
/// A degenerate always-majority classifier scores 0; coin flipping ≈ 0.5.
double GMean(const ConfusionCounts& counts);

/// TP / (TP + FP); 0 when nothing was predicted positive.
double Precision(const ConfusionCounts& counts);

/// TP / (TP + FN); 0 when there are no actual positives.
double Recall(const ConfusionCounts& counts);

/// Sample mean and standard deviation of a series of measurements (used to
/// aggregate the 20 random repetitions of each experiment cell).
struct MeanStddev {
  double mean = 0.0;
  double stddev = 0.0;
};
MeanStddev ComputeMeanStddev(std::span<const double> values);

}  // namespace ccdb::eval

#endif  // CCDB_EVAL_METRICS_H_
