#ifndef CCDB_FACTORIZATION_SGD_LOOP_H_
#define CCDB_FACTORIZATION_SGD_LOOP_H_

// Private to factorization/: the one SGD epoch loop, shared by TrainSgd
// (sgd_trainer.cc) and TrainSgdDurable (checkpoint.cc), and the block grid
// that stratifies its epochs.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/sparse.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "factorization/factor_model.h"
#include "factorization/sgd_trainer.h"

namespace ccdb::factorization {

/// Side B of the B×B block grid every SGD epoch runs over. A compile-time
/// constant: the training trajectory must not depend on the pool size.
inline constexpr std::size_t kSgdBlocks = 8;

/// The blocks of one sub-epoch, indexed by user block: entry p is the
/// block id p·B + q of the block pairing user block p with item block q.
using SgdStratum = std::array<std::size_t, kSgdBlocks>;

/// The fixed block grid of one SGD run (DSGD, Gemulla et al. KDD'11).
/// Seeded permutations of `config.seed` cut users and items into B blocks
/// each; block (p, q) holds the ratings of user block p on item block q,
/// as uint32 rating indices in one CSR array, split into training and
/// holdout ratings. Two blocks that share neither a user block nor an item
/// block touch disjoint model rows, so SGD may run on them concurrently.
class SgdBlockGrid {
 public:
  /// Assigns users and items to blocks and buckets the ratings. The holdout
  /// split draws one Bernoulli(config.validation_fraction) per rating in
  /// index order from Rng(config.seed) (see SplitRatings).
  SgdBlockGrid(const SgdTrainerConfig& config, const RatingDataset& data);

  /// Training / holdout rating indices of `block`, ascending.
  std::span<const std::uint32_t> train(std::size_t block) const;
  std::span<const std::uint32_t> holdout(std::size_t block) const;
  std::size_t num_train() const { return train_.size(); }
  std::size_t num_holdout() const { return holdout_.size(); }

  /// The B sub-epochs of `epoch`: sub-epoch s pairs user block p with item
  /// block (p + shift_s) mod B, the shifts a permutation of 0..B-1 drawn
  /// from (seed, epoch). Each sub-epoch's blocks are pairwise row- and
  /// column-disjoint, and the B sub-epochs cover every block once.
  std::array<SgdStratum, kSgdBlocks> Strata(int epoch) const;

  /// The training ratings of `block` in the order `epoch` visits them: a
  /// shuffle drawn from (seed, epoch, block) alone, so any epoch can be
  /// replayed without its predecessors.
  std::vector<std::uint32_t> EpochOrder(int epoch, std::size_t block) const;

 private:
  std::uint64_t seed_;
  std::vector<std::size_t> train_offsets_;    // B·B + 1
  std::vector<std::uint32_t> train_;
  std::vector<std::size_t> holdout_offsets_;  // B·B + 1
  std::vector<std::uint32_t> holdout_;
};

/// Epoch-loop state of one SGD run: the telemetry so far plus the
/// schedule state needed to continue the loop exactly where it stands.
/// A fresh run starts from SgdState(config); the durable trainer restores
/// one from its snapshot instead.
struct SgdState {
  explicit SgdState(const SgdTrainerConfig& config)
      : learning_rate(config.learning_rate) {}

  TrainingReport report;
  double learning_rate;
  double best_validation = std::numeric_limits<double>::infinity();
  int epochs_without_improvement = 0;
};

/// The SGD epoch loop behind TrainSgd and TrainSgdDurable. Builds the
/// run's SgdBlockGrid, then runs epochs `state.report.epochs_run` up to
/// `config.max_epochs`. An epoch is B sub-epochs; the B blocks of a
/// sub-epoch run as parallel tasks on `pool`, each visiting its ratings in
/// EpochOrder with one SgdStep apiece. Then come learning-rate decay,
/// train/holdout RMSE (per-block partial sums, added in block order) and
/// the patience check. Nothing in the result depends on the pool's size
/// or scheduling, and no epoch depends on the RNG state of the ones before
/// it, so a resumed run is bit-identical to an uninterrupted one.
/// `config.stop` is probed at every epoch boundary. `on_epoch` (if set)
/// runs on the calling thread after every completed epoch; a non-Ok status
/// from it ends the loop and is returned. Must not be called from a task
/// of `pool` (the sub-epochs block on it).
[[nodiscard]] Status RunSgdEpochs(
    const SgdTrainerConfig& config, const RatingDataset& data,
    FactorModel& model, SgdState& state,
    const std::function<Status(const SgdState&)>& on_epoch,
    ThreadPool& pool);

}  // namespace ccdb::factorization

#endif  // CCDB_FACTORIZATION_SGD_LOOP_H_
