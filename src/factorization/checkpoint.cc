#include "factorization/checkpoint.h"

#include <utility>

#include "common/crash_point.h"
#include "common/journal.h"
#include "factorization/sgd_loop.h"

namespace ccdb::factorization {
namespace {

/// Identifies a ccdb trainer checkpoint file (and its format version).
constexpr std::string_view kMagic = "CCDBCKP1";

void PutMatrix(ByteWriter& w, const Matrix& matrix) {
  w.PutU64(matrix.rows());
  w.PutU64(matrix.cols());
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    for (std::size_t c = 0; c < matrix.cols(); ++c) {
      w.PutF64(matrix(r, c));
    }
  }
}

Status GetMatrixInto(ByteReader& r, Matrix& matrix, const char* name) {
  const std::uint64_t rows = r.GetU64();
  const std::uint64_t cols = r.GetU64();
  if (rows != matrix.rows() || cols != matrix.cols()) {
    return Status::InvalidArgument(
        std::string("checkpoint shape mismatch for ") + name + ": " +
        std::to_string(rows) + "x" + std::to_string(cols) + " vs " +
        std::to_string(matrix.rows()) + "x" + std::to_string(matrix.cols()));
  }
  for (std::size_t row = 0; row < rows; ++row) {
    for (std::size_t col = 0; col < cols; ++col) {
      matrix(row, col) = r.GetF64();
    }
  }
  return Status::Ok();
}

void PutDoubles(ByteWriter& w, const std::vector<double>& values) {
  w.PutU64(values.size());
  for (double v : values) w.PutF64(v);
}

Status GetDoublesInto(ByteReader& r, std::vector<double>& values,
                      bool fixed_size, const char* name) {
  const std::uint64_t n = r.GetU64();
  if (fixed_size && n != values.size()) {
    return Status::InvalidArgument(
        std::string("checkpoint size mismatch for ") + name);
  }
  if (!fixed_size) {
    if (n > (1u << 26)) {
      return Status::InvalidArgument(
          std::string("implausible checkpoint vector size for ") + name);
    }
    values.resize(n);
  }
  for (std::uint64_t i = 0; i < n; ++i) values[i] = r.GetF64();
  return Status::Ok();
}

/// Generation g of a snapshot: the live file for g = 0, `path.g` beyond.
std::string GenerationPath(const std::string& path, int gen) {
  return gen == 0 ? path : path + "." + std::to_string(gen);
}

/// Renames a corrupt snapshot aside (never deletes it): first free slot
/// among `path.corrupt`, `path.corrupt.1`, … so repeated corruption events
/// do not overwrite earlier evidence. Best-effort — the fallback to an
/// older generation proceeds even if the rename fails.
void SetAsideCorrupt(Fs& fs, const std::string& path) {
  for (int slot = 0; slot < 16; ++slot) {
    const std::string target =
        path + ".corrupt" + (slot == 0 ? "" : "." + std::to_string(slot));
    StatusOr<bool> exists = fs.Exists(target);
    if (exists.ok() && exists.value()) continue;
    // ccdb-lint: allow(status-nodiscard) — forensic rename is best-effort;
    // recovery falls back to an older generation either way.
    (void)fs.Rename(path, target);
    return;
  }
}

/// Writes one sealed snapshot (SealSnapshot envelope) in one
/// WriteFileAtomic so readers only ever see a complete snapshot; the
/// previous snapshot is rotated to `path.1` (and so on) first, feeding the
/// generation-fallback ladder.
Status WriteSnapshot(Fs& fs, const std::string& path, int keep_generations,
                     std::string_view payload) {
  for (int gen = keep_generations - 1; gen >= 1; --gen) {
    StatusOr<bool> exists = fs.Exists(GenerationPath(path, gen - 1));
    if (!exists.ok() || !exists.value()) continue;
    // ccdb-lint: allow(status-nodiscard) — rotation is best-effort: losing
    // an *older* generation never endangers the snapshot being written.
    (void)fs.Rename(GenerationPath(path, gen - 1), GenerationPath(path, gen));
  }
  return fs.WriteFileAtomic(path, SealSnapshot(kMagic, payload));
}

/// Reads a snapshot's payload, walking the generation ladder: the newest
/// generation whose envelope (magic + CRC) validates wins; corrupt
/// generations are renamed aside (never deleted) and the next older one is
/// tried. NotFound when no generation holds a valid snapshot. Transient
/// read errors propagate — they are not corruption, and falling back on
/// them could silently shadow the newest good state.
StatusOr<std::string> ReadSnapshot(Fs& fs, const std::string& path,
                                   int keep_generations) {
  for (int gen = 0; gen < keep_generations; ++gen) {
    const std::string gen_path = GenerationPath(path, gen);
    StatusOr<std::string> file = fs.ReadFile(gen_path);
    if (!file.ok()) {
      if (file.status().code() == StatusCode::kNotFound) continue;
      return file.status();
    }
    StatusOr<std::string_view> payload =
        UnsealSnapshot(kMagic, file.value(), gen_path);
    if (payload.ok()) return std::string(payload.value());
    SetAsideCorrupt(fs, gen_path);
  }
  return Status::NotFound("no valid trainer checkpoint generation at " +
                          path);
}

std::uint64_t SgdFingerprint(const SgdTrainerConfig& config,
                             const RatingDataset& data,
                             const FactorModel& model) {
  ByteWriter w;
  w.PutU64(kSgdScheduleVersion);
  w.PutU64(static_cast<std::uint64_t>(config.max_epochs));
  w.PutF64(config.learning_rate);
  w.PutF64(config.lr_decay);
  w.PutF64(config.validation_fraction);
  w.PutU64(static_cast<std::uint64_t>(config.patience));
  w.PutU64(config.seed);
  w.PutU64(data.num_items());
  w.PutU64(data.num_users());
  w.PutU64(data.num_ratings());
  const FactorModelConfig& mc = model.config();
  w.PutU8(static_cast<std::uint8_t>(mc.kind));
  w.PutU64(mc.dims);
  w.PutF64(mc.lambda);
  w.PutF64(mc.init_scale);
  w.PutU64(mc.time_bins);
  w.PutF64(mc.timeline_days);
  w.PutU64(mc.seed);
  return HashBytes(w.bytes());
}

bool Finished(const SgdTrainerConfig& config, const SgdState& state) {
  return state.report.early_stopped ||
         state.report.epochs_run == config.max_epochs;
}

/// Snapshot payload: the run's fingerprint, the SGD schedule state, the
/// telemetry so far and the model — everything needed to continue the
/// epoch loop exactly where the snapshot left it.
std::string EncodeSgdSnapshot(std::uint64_t fingerprint,
                              const SgdTrainerConfig& config,
                              const SgdState& state,
                              const FactorModel& model) {
  ByteWriter w;
  w.PutU64(fingerprint);
  w.PutU64(static_cast<std::uint64_t>(state.report.epochs_run));
  w.PutF64(state.learning_rate);
  w.PutF64(state.best_validation);
  w.PutU64(static_cast<std::uint64_t>(state.epochs_without_improvement));
  w.PutBool(state.report.early_stopped);
  w.PutBool(Finished(config, state));
  PutDoubles(w, state.report.train_rmse);
  PutDoubles(w, state.report.validation_rmse);
  w.PutBytes(EncodeFactorModel(model));
  return w.Take();
}

Status DecodeSgdSnapshotInto(std::string_view payload,
                             std::uint64_t expected_fingerprint,
                             const SgdTrainerConfig& config, SgdState& state,
                             FactorModel& model) {
  ByteReader r(payload);
  const std::uint64_t fingerprint = r.GetU64();
  if (r.ok() && fingerprint != expected_fingerprint) {
    return Status::InvalidArgument(
        "trainer checkpoint belongs to a different run (fingerprint "
        "mismatch)");
  }
  TrainingReport& report = state.report;
  const std::uint64_t epochs_run = r.GetU64();
  state.learning_rate = r.GetF64();
  state.best_validation = r.GetF64();
  state.epochs_without_improvement = static_cast<int>(r.GetU64());
  report.early_stopped = r.GetBool();
  r.GetBool();  // finished: implied by early_stopped and epochs_run
  if (Status status = GetDoublesInto(r, report.train_rmse, false,
                                     "train_rmse");
      !status.ok()) {
    return status;
  }
  if (Status status = GetDoublesInto(r, report.validation_rmse, false,
                                     "validation_rmse");
      !status.ok()) {
    return status;
  }
  const std::string_view model_bytes = r.GetBytes();
  if (!r.AtEnd() ||
      epochs_run > static_cast<std::uint64_t>(config.max_epochs)) {
    return Status::InvalidArgument("malformed trainer checkpoint payload");
  }
  report.epochs_run = static_cast<int>(epochs_run);
  report.final_train_rmse =
      report.train_rmse.empty() ? 0.0 : report.train_rmse.back();
  report.final_validation_rmse =
      report.validation_rmse.empty() ? 0.0 : report.validation_rmse.back();
  return DecodeFactorModelInto(model_bytes, model);
}

}  // namespace

std::string EncodeFactorModel(const FactorModel& model) {
  ByteWriter w;
  w.PutF64(model.global_mean());
  PutMatrix(w, model.item_factors());
  PutMatrix(w, model.user_factors());
  PutDoubles(w, model.item_bias());
  PutDoubles(w, model.user_bias());
  PutMatrix(w, model.item_time_bias());
  return w.Take();
}

Status DecodeFactorModelInto(std::string_view bytes, FactorModel& model) {
  ByteReader r(bytes);
  const double global_mean = r.GetF64();
  if (r.ok() && global_mean != model.global_mean()) {
    return Status::InvalidArgument(
        "checkpoint global mean differs — model built from different data");
  }
  if (Status status =
          GetMatrixInto(r, model.mutable_item_factors(), "item_factors");
      !status.ok()) {
    return status;
  }
  if (Status status =
          GetMatrixInto(r, model.mutable_user_factors(), "user_factors");
      !status.ok()) {
    return status;
  }
  if (Status status =
          GetDoublesInto(r, model.mutable_item_bias(), true, "item_bias");
      !status.ok()) {
    return status;
  }
  if (Status status =
          GetDoublesInto(r, model.mutable_user_bias(), true, "user_bias");
      !status.ok()) {
    return status;
  }
  if (Status status = GetMatrixInto(r, model.mutable_item_time_bias(),
                                    "item_time_bias");
      !status.ok()) {
    return status;
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("malformed model checkpoint bytes");
  }
  return Status::Ok();
}

StatusOr<TrainingReport> TrainSgdDurable(
    const SgdTrainerConfig& config, const RatingDataset& data,
    FactorModel& model, const TrainerCheckpointOptions& checkpoint) {
  if (checkpoint.path.empty()) {
    return Status::InvalidArgument("TrainerCheckpointOptions.path is empty");
  }
  if (checkpoint.every_epochs <= 0) {
    return Status::InvalidArgument("every_epochs must be > 0");
  }
  if (checkpoint.keep_generations < 1) {
    return Status::InvalidArgument("keep_generations must be >= 1");
  }
  if (config.max_epochs <= 0 || !(config.learning_rate > 0.0) ||
      !(config.lr_decay > 0.0) || config.lr_decay > 1.0) {
    return Status::InvalidArgument("invalid SgdTrainerConfig");
  }
  Fs& fs = ResolveFs(checkpoint.fs);
  const std::uint64_t fingerprint = SgdFingerprint(config, data, model);

  SgdState state(config);
  StatusOr<std::string> snapshot =
      ReadSnapshot(fs, checkpoint.path, checkpoint.keep_generations);
  if (snapshot.ok()) {
    if (Status status =
            DecodeSgdSnapshotInto(snapshot.value(), fingerprint, config,
                                  state, model);
        !status.ok()) {
      return status;
    }
    if (Finished(config, state)) return std::move(state.report);
  } else if (snapshot.status().code() != StatusCode::kNotFound) {
    return snapshot.status();
  }

  const Status status = RunSgdEpochs(
      config, data, model, state, [&](const SgdState& epoch_state) {
        if (!Finished(config, epoch_state) &&
            epoch_state.report.epochs_run % checkpoint.every_epochs != 0) {
          return Status::Ok();
        }
        if (Status written = WriteSnapshot(
                fs, checkpoint.path, checkpoint.keep_generations,
                EncodeSgdSnapshot(fingerprint, config, epoch_state, model));
            !written.ok()) {
          return written;
        }
        CCDB_CRASH_POINT("sgd.checkpoint");
        return Status::Ok();
      },
      SharedThreadPool());
  if (!status.ok()) return status;
  return std::move(state.report);
}

}  // namespace ccdb::factorization
