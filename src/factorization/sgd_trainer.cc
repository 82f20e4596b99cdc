#include "factorization/sgd_trainer.h"

#include <array>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"
#include "factorization/sgd_loop.h"

namespace ccdb::factorization {
namespace {

static_assert(kSgdBlocks >= 1 && kSgdBlocks <= 256,
              "block ids are stored as uint8");
constexpr std::size_t kNumBlocks = kSgdBlocks * kSgdBlocks;

/// Independent RNG streams of one run, keyed by what they decide.
enum Stream : std::uint64_t { kUserBlocks = 1, kItemBlocks, kStrata, kOrder };

std::uint64_t Mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Rng StreamRng(std::uint64_t seed, Stream stream, std::uint64_t epoch = 0,
              std::uint64_t block = 0) {
  std::uint64_t h = Mix(seed + 0x9E3779B97F4A7C15ull);
  for (std::uint64_t word : {static_cast<std::uint64_t>(stream), epoch,
                             block}) {
    h = Mix(h ^ (word + 0x9E3779B97F4A7C15ull));
  }
  return Rng(h);
}

/// Cuts ids 0..n-1 into kSgdBlocks near-equal blocks along a seeded
/// permutation.
std::vector<std::uint8_t> AssignBlocks(std::size_t n, Rng rng) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  rng.Shuffle(order);
  std::vector<std::uint8_t> block(n);
  for (std::size_t k = 0; k < n; ++k) {
    block[order[k]] = static_cast<std::uint8_t>(k * kSgdBlocks / n);
  }
  return block;
}

/// RMSE of `model` over the grid's training (or holdout) ratings: one
/// partial sum per block on `pool`, added in block order.
double GridRmse(const FactorModel& model, const RatingDataset& data,
                const SgdBlockGrid& grid, bool holdout, ThreadPool& pool) {
  const std::size_t count = holdout ? grid.num_holdout() : grid.num_train();
  if (count == 0) return 0.0;
  const auto ratings = data.ratings();
  std::array<double, kNumBlocks> partial{};
  pool.ParallelFor(0, kNumBlocks, [&](std::size_t block) {
    double acc = 0.0;
    for (std::uint32_t idx : holdout ? grid.holdout(block)
                                     : grid.train(block)) {
      const Rating& r = ratings[idx];
      const double diff = r.score - model.PredictAt(r.item, r.user, r.day);
      acc += diff * diff;
    }
    partial[block] = acc;
  });
  double total = 0.0;
  for (double acc : partial) total += acc;
  return std::sqrt(total / static_cast<double>(count));
}

}  // namespace

SgdBlockGrid::SgdBlockGrid(const SgdTrainerConfig& config,
                           const RatingDataset& data)
    : seed_(config.seed),
      train_offsets_(kNumBlocks + 1, 0),
      holdout_offsets_(kNumBlocks + 1, 0) {
  const auto ratings = data.ratings();
  CCDB_CHECK_LE(ratings.size(), std::numeric_limits<std::uint32_t>::max());
  const std::vector<std::uint8_t> user_block =
      AssignBlocks(data.num_users(), StreamRng(config.seed, kUserBlocks));
  const std::vector<std::uint8_t> item_block =
      AssignBlocks(data.num_items(), StreamRng(config.seed, kItemBlocks));
  Rng split_rng(config.seed);
  const std::vector<bool> held_out =
      SplitRatings(ratings.size(), config.validation_fraction, split_rng);
  auto block_of = [&](const Rating& r) {
    return user_block[r.user] * kSgdBlocks + item_block[r.item];
  };
  // Counting sort of the rating indices into the two CSR arrays.
  for (std::size_t i = 0; i < ratings.size(); ++i) {
    auto& offsets = held_out[i] ? holdout_offsets_ : train_offsets_;
    ++offsets[block_of(ratings[i]) + 1];
  }
  std::partial_sum(train_offsets_.begin(), train_offsets_.end(),
                   train_offsets_.begin());
  std::partial_sum(holdout_offsets_.begin(), holdout_offsets_.end(),
                   holdout_offsets_.begin());
  train_.resize(train_offsets_.back());
  holdout_.resize(holdout_offsets_.back());
  std::vector<std::size_t> train_fill(train_offsets_.begin(),
                                      train_offsets_.end() - 1);
  std::vector<std::size_t> holdout_fill(holdout_offsets_.begin(),
                                        holdout_offsets_.end() - 1);
  for (std::size_t i = 0; i < ratings.size(); ++i) {
    const std::size_t block = block_of(ratings[i]);
    const auto idx = static_cast<std::uint32_t>(i);
    if (held_out[i]) {
      holdout_[holdout_fill[block]++] = idx;
    } else {
      train_[train_fill[block]++] = idx;
    }
  }
}

std::span<const std::uint32_t> SgdBlockGrid::train(std::size_t block) const {
  return std::span<const std::uint32_t>(train_).subspan(
      train_offsets_[block], train_offsets_[block + 1] - train_offsets_[block]);
}

std::span<const std::uint32_t> SgdBlockGrid::holdout(
    std::size_t block) const {
  return std::span<const std::uint32_t>(holdout_).subspan(
      holdout_offsets_[block],
      holdout_offsets_[block + 1] - holdout_offsets_[block]);
}

std::array<SgdStratum, kSgdBlocks> SgdBlockGrid::Strata(int epoch) const {
  std::vector<std::size_t> shifts(kSgdBlocks);
  std::iota(shifts.begin(), shifts.end(), std::size_t{0});
  StreamRng(seed_, kStrata, static_cast<std::uint64_t>(epoch))
      .Shuffle(shifts);
  std::array<SgdStratum, kSgdBlocks> strata;
  for (std::size_t sub = 0; sub < kSgdBlocks; ++sub) {
    for (std::size_t p = 0; p < kSgdBlocks; ++p) {
      strata[sub][p] = p * kSgdBlocks + (p + shifts[sub]) % kSgdBlocks;
    }
  }
  return strata;
}

std::vector<std::uint32_t> SgdBlockGrid::EpochOrder(int epoch,
                                                    std::size_t block) const {
  const auto ratings = train(block);
  std::vector<std::uint32_t> order(ratings.begin(), ratings.end());
  StreamRng(seed_, kOrder, static_cast<std::uint64_t>(epoch), block)
      .Shuffle(order);
  return order;
}

Status RunSgdEpochs(const SgdTrainerConfig& config, const RatingDataset& data,
                    FactorModel& model, SgdState& state,
                    const std::function<Status(const SgdState&)>& on_epoch,
                    ThreadPool& pool) {
  const SgdBlockGrid grid(config, data);
  const bool has_validation = grid.num_holdout() > 0;
  TrainingReport& report = state.report;
  const auto ratings = data.ratings();
  for (int epoch = report.epochs_run; epoch < config.max_epochs; ++epoch) {
    if (config.stop.ShouldStop()) {
      report.stop_status = config.stop.ToStatus("SGD training");
      break;
    }
    const double lr = state.learning_rate;
    for (const SgdStratum& stratum : grid.Strata(epoch)) {
      // The stratum's blocks share no user and no item row, so the tasks
      // write disjoint parts of the model and need no synchronization.
      pool.ParallelFor(0, kSgdBlocks, [&](std::size_t p) {
        for (std::uint32_t idx : grid.EpochOrder(epoch, stratum[p])) {
          model.SgdStep(ratings[idx], lr);
        }
      });
    }
    state.learning_rate *= config.lr_decay;
    ++report.epochs_run;

    report.final_train_rmse = GridRmse(model, data, grid, false, pool);
    report.train_rmse.push_back(report.final_train_rmse);
    if (has_validation) {
      report.final_validation_rmse = GridRmse(model, data, grid, true, pool);
      report.validation_rmse.push_back(report.final_validation_rmse);
      if (report.final_validation_rmse + 1e-6 < state.best_validation) {
        state.best_validation = report.final_validation_rmse;
        state.epochs_without_improvement = 0;
      } else if (++state.epochs_without_improvement >= config.patience) {
        report.early_stopped = true;
      }
    }
    if (on_epoch) {
      if (Status status = on_epoch(state); !status.ok()) return status;
    }
    if (report.early_stopped) break;
  }
  return Status::Ok();
}

TrainingReport TrainSgd(const SgdTrainerConfig& config,
                        const RatingDataset& data, FactorModel& model) {
  CCDB_CHECK_GT(config.max_epochs, 0);
  CCDB_CHECK_GT(config.learning_rate, 0.0);
  CCDB_CHECK_GT(config.lr_decay, 0.0);
  CCDB_CHECK_LE(config.lr_decay, 1.0);

  SgdState state(config);
  // Without an epoch hook nothing in the loop can fail.
  CCDB_CHECK(RunSgdEpochs(config, data, model, state, nullptr,
                          SharedThreadPool())
                 .ok());
  return std::move(state.report);
}

}  // namespace ccdb::factorization
