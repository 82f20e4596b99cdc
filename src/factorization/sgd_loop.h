#ifndef CCDB_FACTORIZATION_SGD_LOOP_H_
#define CCDB_FACTORIZATION_SGD_LOOP_H_

// Private to factorization/: the one SGD epoch loop, shared by TrainSgd
// (sgd_trainer.cc) and TrainSgdDurable (checkpoint.cc).

#include <functional>
#include <limits>

#include "common/sparse.h"
#include "common/status.h"
#include "factorization/factor_model.h"
#include "factorization/sgd_trainer.h"

namespace ccdb::factorization {

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

/// The SGD epoch loop behind TrainSgd and TrainSgdDurable. Rebuilds the
/// seeded train/holdout split, fast-forwards the shuffle schedule past the
/// `state.report.epochs_run` epochs already done, then runs the remaining
/// epochs: shuffle, one SgdStep per training rating, learning-rate decay,
/// RMSE, and the patience check. `config.stop` is probed at every epoch
/// boundary. `on_epoch` (if set) runs after every completed epoch; a
/// non-Ok status from it ends the loop and is returned.
[[nodiscard]] Status RunSgdEpochs(
    const SgdTrainerConfig& config, const RatingDataset& data,
    FactorModel& model, SgdState& state,
    const std::function<Status(const SgdState&)>& on_epoch);

}  // namespace ccdb::factorization

#endif  // CCDB_FACTORIZATION_SGD_LOOP_H_
