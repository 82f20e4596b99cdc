#include "eval/metrics.h"

#include <cmath>

#include "common/check.h"

namespace ccdb::eval {

ConfusionCounts CountConfusion(const std::vector<bool>& predicted,
                               const std::vector<bool>& actual) {
  CCDB_CHECK_EQ(predicted.size(), actual.size());
  ConfusionCounts counts;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (actual[i]) {
      if (predicted[i]) {
        ++counts.true_positive;
      } else {
        ++counts.false_negative;
      }
    } else {
      if (predicted[i]) {
        ++counts.false_positive;
      } else {
        ++counts.true_negative;
      }
    }
  }
  return counts;
}

double Accuracy(const ConfusionCounts& c) {
  const std::size_t total = c.total();
  if (total == 0) return 0.0;
  return static_cast<double>(c.true_positive + c.true_negative) /
         static_cast<double>(total);
}

double Sensitivity(const ConfusionCounts& c) {
  const std::size_t positives = c.true_positive + c.false_negative;
  if (positives == 0) return 0.0;
  return static_cast<double>(c.true_positive) /
         static_cast<double>(positives);
}

double Specificity(const ConfusionCounts& c) {
  const std::size_t negatives = c.true_negative + c.false_positive;
  if (negatives == 0) return 0.0;
  return static_cast<double>(c.true_negative) /
         static_cast<double>(negatives);
}

double GMean(const ConfusionCounts& c) {
  return std::sqrt(Sensitivity(c) * Specificity(c));
}

double Precision(const ConfusionCounts& c) {
  const std::size_t predicted_positive = c.true_positive + c.false_positive;
  if (predicted_positive == 0) return 0.0;
  return static_cast<double>(c.true_positive) /
         static_cast<double>(predicted_positive);
}

double Recall(const ConfusionCounts& c) { return Sensitivity(c); }

MeanStddev ComputeMeanStddev(std::span<const double> values) {
  MeanStddev result;
  if (values.empty()) return result;
  double total = 0.0;
  for (double v : values) total += v;
  result.mean = total / static_cast<double>(values.size());
  double variance = 0.0;
  for (double v : values) variance += (v - result.mean) * (v - result.mean);
  variance /= static_cast<double>(values.size());
  result.stddev = std::sqrt(variance);
  return result;
}

}  // namespace ccdb::eval
