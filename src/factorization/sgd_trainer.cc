#include "factorization/sgd_trainer.h"

#include "common/check.h"
#include "common/rng.h"
#include "factorization/sgd_loop.h"

namespace ccdb::factorization {

Status RunSgdEpochs(const SgdTrainerConfig& config, const RatingDataset& data,
                    FactorModel& model, SgdState& state,
                    const std::function<Status(const SgdState&)>& on_epoch) {
  // Recreate the stochastic schedule exactly: same seed, same split, and
  // one shuffle per epoch already run. This reproduces both the RNG state
  // and the training permutation, so a resumed run is bit-identical to an
  // uninterrupted one.
  Rng rng(config.seed);
  TrainHoldoutSplit split =
      SplitRatings(data.num_ratings(), config.validation_fraction, rng);
  const bool has_validation = !split.holdout.empty();
  TrainingReport& report = state.report;
  for (int epoch = 0; epoch < report.epochs_run; ++epoch) {
    rng.Shuffle(split.train);
  }

  const auto ratings = data.ratings();
  for (int epoch = report.epochs_run; epoch < config.max_epochs; ++epoch) {
    if (config.stop.ShouldStop()) {
      report.stop_status = config.stop.ToStatus("SGD training");
      break;
    }
    rng.Shuffle(split.train);
    const double lr = state.learning_rate;
    for (std::size_t idx : split.train) {
      model.SgdStep(ratings[idx], lr);
    }
    state.learning_rate *= config.lr_decay;
    ++report.epochs_run;

    report.final_train_rmse = model.EvaluateRmse(data, split.train);
    report.train_rmse.push_back(report.final_train_rmse);
    if (has_validation) {
      report.final_validation_rmse = model.EvaluateRmse(data, split.holdout);
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
  CCDB_CHECK(RunSgdEpochs(config, data, model, state, nullptr).ok());
  return std::move(state.report);
}

}  // namespace ccdb::factorization
