#include "core/perceptual_space.h"

#include <string_view>

#include "common/check.h"
#include "common/journal.h"
#include "common/vec.h"

namespace ccdb::core {
namespace {

/// Mean per-coordinate variance of `coords`' rows.
double ComputeCoordinateVariance(const Matrix& coords) {
  const std::size_t n = coords.rows();
  const std::size_t d = coords.cols();
  if (n == 0 || d == 0) return 0.0;
  // Two row-major passes (means, then squared deviations) so each row is
  // streamed once per pass instead of strided column walks; per column the
  // sum still runs over rows in order.
  std::vector<double> mean(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = coords.Row(i);
    for (std::size_t c = 0; c < d; ++c) mean[c] += row[c];
  }
  for (std::size_t c = 0; c < d; ++c) mean[c] /= static_cast<double>(n);
  std::vector<double> variance(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = coords.Row(i);
    for (std::size_t c = 0; c < d; ++c) {
      const double diff = row[c] - mean[c];
      variance[c] += diff * diff;
    }
  }
  double total_variance = 0.0;
  for (std::size_t c = 0; c < d; ++c) {
    total_variance += variance[c] / static_cast<double>(n);
  }
  return total_variance / static_cast<double>(d);
}

}  // namespace

PerceptualSpace PerceptualSpace::Build(const RatingDataset& ratings,
                                       const PerceptualSpaceOptions& options) {
  factorization::FactorModel model(options.model, ratings);
  factorization::TrainSgd(options.trainer, ratings, model);
  return PerceptualSpace(model.item_factors(), model.item_bias(),
                         model.global_mean());
}

PerceptualSpace::PerceptualSpace(Matrix item_coords)
    : item_coords_(std::move(item_coords)),
      coordinate_variance_(ComputeCoordinateVariance(item_coords_)) {}

PerceptualSpace::PerceptualSpace(Matrix item_coords,
                                 std::vector<double> item_bias,
                                 double global_mean)
    : item_coords_(std::move(item_coords)),
      item_bias_(std::move(item_bias)),
      global_mean_(global_mean),
      coordinate_variance_(ComputeCoordinateVariance(item_coords_)) {
  CCDB_CHECK_EQ(item_bias_.size(), item_coords_.rows());
}

double PerceptualSpace::BiasOf(std::uint32_t item) const {
  CCDB_CHECK_LT(item, num_items());
  return item_bias_.empty() ? 0.0 : item_bias_[item];
}

double PerceptualSpace::Distance(std::uint32_t a, std::uint32_t b) const {
  return ccdb::Distance(item_coords_.Row(a), item_coords_.Row(b));
}

std::vector<eval::Neighbor> PerceptualSpace::NearestNeighbors(
    std::uint32_t item, std::size_t k) const {
  return eval::KNearestNeighbors(item_coords_, item, k);
}

Matrix PerceptualSpace::GatherRows(
    const std::vector<std::uint32_t>& items) const {
  Matrix gathered(items.size(), dims());
  for (std::size_t i = 0; i < items.size(); ++i) {
    CCDB_CHECK_LT(items[i], num_items());
    auto dst = gathered.Row(i);
    const auto src = item_coords_.Row(items[i]);
    for (std::size_t c = 0; c < src.size(); ++c) dst[c] = src[c];
  }
  return gathered;
}

namespace {

// Format v03: a SealSnapshot envelope around a ByteWriter payload
// (little-endian, doubles as IEEE-754 bit patterns). Files of older
// versions fail the magic check; the bench cache then rebuilds them.
constexpr std::string_view kMagic = "CCDBPS03";
/// Payload header: num_items (u64), dims (u64), has_bias (u8), global mean.
constexpr std::uint64_t kHeaderBytes = 8 + 8 + 1 + 8;

}  // namespace

Status PerceptualSpace::SaveToFile(const std::string& path, Fs* fs) const {
  ByteWriter w;
  w.PutU64(num_items());
  w.PutU64(dims());
  w.PutBool(!item_bias_.empty());
  w.PutF64(global_mean_);
  for (double v : item_coords_.Data()) w.PutF64(v);
  for (double v : item_bias_) w.PutF64(v);
  return AtomicWriteFile(path, SealSnapshot(kMagic, w.bytes()), fs);
}

StatusOr<PerceptualSpace> PerceptualSpace::LoadFromFile(
    const std::string& path, Fs* fs) {
  StatusOr<std::string> bytes = ReadFileToString(path, fs);
  if (!bytes.ok()) return bytes.status();
  StatusOr<std::string_view> payload =
      UnsealSnapshot(kMagic, bytes.value(), path);
  if (!payload.ok()) return payload.status();

  ByteReader r(payload.value());
  const std::uint64_t num_items = r.GetU64();
  const std::uint64_t dims = r.GetU64();
  const bool has_bias = r.GetBool();
  const double global_mean = r.GetF64();
  // The header must describe exactly the doubles that follow it; checked
  // before allocating (the bounds keep the products from overflowing).
  const std::uint64_t max_doubles = payload.value().size() / sizeof(double);
  if (!r.ok() || num_items > max_doubles ||
      (num_items != 0 && dims > max_doubles / num_items) ||
      kHeaderBytes +
              sizeof(double) *
                  (num_items * dims + (has_bias ? num_items : 0)) !=
          payload.value().size()) {
    return Status::InvalidArgument("perceptual-space payload size mismatch: " +
                                   path);
  }
  Matrix coords(num_items, dims);
  for (double& v : coords.Data()) v = r.GetF64();
  if (!has_bias) return PerceptualSpace(std::move(coords));
  std::vector<double> bias(num_items);
  for (double& v : bias) v = r.GetF64();
  return PerceptualSpace(std::move(coords), std::move(bias), global_mean);
}

}  // namespace ccdb::core
