#ifndef CCDB_FACTORIZATION_CHECKPOINT_H_
#define CCDB_FACTORIZATION_CHECKPOINT_H_

#include <string>
#include <string_view>

#include "common/io.h"
#include "common/status.h"
#include "factorization/factor_model.h"
#include "factorization/sgd_trainer.h"

namespace ccdb::factorization {

/// Epoch-level trainer durability: where (and how often) the durable
/// trainer snapshots its state. Snapshots are single files replaced via
/// write-to-temp + fsync + rename + parent-directory fsync, so a crash
/// mid-write leaves the previous snapshot intact; a CRC over the payload
/// rejects bit rot. Older snapshot generations are kept at `path.1`,
/// `path.2`, … — when the newest snapshot fails its envelope check
/// (magic/CRC) it is renamed aside to `path.corrupt*` (never deleted) and
/// loading falls back to the newest older valid generation.
struct TrainerCheckpointOptions {
  /// Snapshot file path. Must be non-empty.
  std::string path;
  /// Snapshot cadence in epochs. The final state is always snapshotted
  /// regardless of cadence.
  int every_epochs = 1;
  /// Total snapshot generations kept on disk (current + keep-1 older).
  /// Must be >= 1; 1 disables the fallback ladder.
  int keep_generations = 2;
  /// Filesystem backend (ResolveFs convention: nullptr = the real one).
  Fs* fs = nullptr;
};

/// Serializes a model's full trainable state (factors, biases, temporal
/// bin biases, global mean) with doubles as IEEE-754 bit patterns — a
/// restore is bit-exact.
std::string EncodeFactorModel(const FactorModel& model);

/// Restores trainable state into `model`, which must have been constructed
/// from the same (config, dataset) pair — shape mismatches are rejected
/// with InvalidArgument.
[[nodiscard]]
Status DecodeFactorModelInto(std::string_view bytes, FactorModel& model);

/// Durable TrainSgd: snapshots (model + schedule state + telemetry) every
/// `checkpoint.every_epochs` epochs via atomic rename. When the snapshot
/// file already exists and matches this run's fingerprint (config, data
/// shape, model config, kSgdScheduleVersion), training resumes from the
/// snapshotted epoch; the final model and report are bit-identical to an
/// uninterrupted run. A snapshot from a different run, or one trained
/// under another schedule version, is rejected with InvalidArgument. Runs
/// the same epoch loop as TrainSgd, on SharedThreadPool() (so never call
/// it from a task of that pool), and `config.stop` ends it at an epoch
/// boundary with the report's stop_status set; the epochs since the last
/// snapshot are not snapshotted.
[[nodiscard]] StatusOr<TrainingReport> TrainSgdDurable(
    const SgdTrainerConfig& config, const RatingDataset& data,
    FactorModel& model, const TrainerCheckpointOptions& checkpoint);

}  // namespace ccdb::factorization

#endif  // CCDB_FACTORIZATION_CHECKPOINT_H_
