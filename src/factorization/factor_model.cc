#include "factorization/factor_model.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/rng.h"
#include "common/vec.h"

namespace ccdb::factorization {
namespace {

// Gradient steps are clipped so a single outlier rating cannot blow up the
// embedding early in training (the d⁴ regularizer is quartic, so runaway
// distances feed back into ever larger gradients otherwise).
constexpr double kMaxStep = 1.0;

double Clip(double v, double limit) {
  return std::max(-limit, std::min(limit, v));
}

}  // namespace

FactorModel::FactorModel(const FactorModelConfig& config,
                         const RatingDataset& data)
    : config_(config),
      global_mean_(data.GlobalMean()),
      item_factors_(data.num_items(), config.dims),
      user_factors_(data.num_users(), config.dims),
      item_bias_(data.num_items(), 0.0),
      user_bias_(data.num_users(), 0.0) {
  CCDB_CHECK_GT(config.dims, 0u);
  CCDB_CHECK_GE(config.lambda, 0.0);
  CCDB_CHECK_GT(config.time_bins, 0u);
  if (config.time_bins > 1) {
    CCDB_CHECK_GT(config.timeline_days, 0.0);
    item_time_bias_ = Matrix(data.num_items(), config.time_bins);
  }
  Rng rng(config.seed);
  const double scale = config.init_scale / std::sqrt(
      static_cast<double>(config.dims));
  item_factors_.FillGaussian(rng, 0.0, scale);
  user_factors_.FillGaussian(rng, 0.0, scale);
  // Warm-start biases at the observed mean deviations; SGD refines them.
  for (std::size_t m = 0; m < data.num_items(); ++m) {
    item_bias_[m] = data.ItemMean(static_cast<std::uint32_t>(m)) -
                    global_mean_;
  }
  for (std::size_t u = 0; u < data.num_users(); ++u) {
    user_bias_[u] = data.UserMean(static_cast<std::uint32_t>(u)) -
                    global_mean_;
  }
}

std::size_t FactorModel::BinOf(double day) const {
  if (config_.time_bins <= 1) return 0;
  const double phase = day / config_.timeline_days;
  const auto bin = static_cast<std::ptrdiff_t>(
      phase * static_cast<double>(config_.time_bins));
  return static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
      bin, 0, static_cast<std::ptrdiff_t>(config_.time_bins) - 1));
}

double FactorModel::PredictAt(std::uint32_t item, std::uint32_t user,
                              double day) const {
  double prediction = Predict(item, user);
  if (config_.time_bins > 1) {
    prediction += item_time_bias_(item, BinOf(day));
  }
  return prediction;
}

double FactorModel::Predict(std::uint32_t item, std::uint32_t user) const {
  const auto a = item_factors_.Row(item);
  const auto b = user_factors_.Row(user);
  const double bias_part = global_mean_ + item_bias_[item] + user_bias_[user];
  switch (config_.kind) {
    case ModelKind::kSvdDotProduct:
      return bias_part + Dot(a, b);
    case ModelKind::kEuclideanEmbedding:
      return bias_part - SquaredDistance(a, b);
  }
  return bias_part;
}

void FactorModel::SgdStep(const Rating& rating, double learning_rate) {
  switch (config_.kind) {
    case ModelKind::kSvdDotProduct:
      SvdStep(rating, learning_rate);
      return;
    case ModelKind::kEuclideanEmbedding:
      EuclideanStep(rating, learning_rate);
      return;
  }
}

void FactorModel::SvdStep(const Rating& rating, double lr) {
  const std::uint32_t m = rating.item;
  const std::uint32_t u = rating.user;
  auto a = item_factors_.Row(m);
  auto b = user_factors_.Row(u);
  const double error = rating.score - PredictAt(m, u, rating.day);
  const double lambda = config_.lambda;
  if (config_.time_bins > 1) {
    double& bin_bias = item_time_bias_(m, BinOf(rating.day));
    bin_bias += lr * (error - lambda * bin_bias);
  }
  item_bias_[m] += lr * Clip(error - lambda * item_bias_[m], kMaxStep / lr);
  user_bias_[u] += lr * Clip(error - lambda * user_bias_[u], kMaxStep / lr);
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double ak = a[k];
    a[k] += lr * (error * b[k] - lambda * ak);
    b[k] += lr * (error * ak - lambda * b[k]);
  }
}

void FactorModel::EuclideanStep(const Rating& rating, double lr) {
  const std::uint32_t m = rating.item;
  const std::uint32_t u = rating.user;
  auto a = item_factors_.Row(m);
  auto b = user_factors_.Row(u);
  const double dist_sq = SquaredDistance(a, b);
  double prediction =
      global_mean_ + item_bias_[m] + user_bias_[u] - dist_sq;
  if (config_.time_bins > 1) {
    prediction += item_time_bias_(m, BinOf(rating.day));
  }
  const double error = rating.score - prediction;
  const double lambda = config_.lambda;
  if (config_.time_bins > 1) {
    double& bin_bias = item_time_bias_(m, BinOf(rating.day));
    bin_bias += lr * (error - lambda * bin_bias);
  }

  // ∂L/∂δ = −2e + 2λδ  (factor 2 absorbed into lr, as is conventional).
  item_bias_[m] += lr * (error - lambda * item_bias_[m]);
  user_bias_[u] += lr * (error - lambda * user_bias_[u]);

  // ∂L/∂a = 4(a−b)(e + λ‖a−b‖²); relative to the bias step this keeps the
  // true 2:1 gradient ratio after absorbing the common factor 2.
  const double coeff = Clip(2.0 * (error + lambda * dist_sq), kMaxStep / lr);
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double diff = a[k] - b[k];
    a[k] -= lr * coeff * diff;
    b[k] += lr * coeff * diff;
  }
}

}  // namespace ccdb::factorization
