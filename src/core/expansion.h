#ifndef CCDB_CORE_EXPANSION_H_
#define CCDB_CORE_EXPANSION_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "core/extractor.h"
#include "core/perceptual_space.h"
#include "crowd/aggregation.h"
#include "crowd/dispatcher.h"
#include "crowd/platform.h"

namespace ccdb::core {

/// One checkpoint of the incremental boosting loop (Experiments 4–6 /
/// Figures 3–4): the state of the expansion at a point in crowd time.
struct ExpansionCheckpoint {
  double minutes = 0.0;
  double dollars_spent = 0.0;
  /// Items with a clear crowd majority at this time (the training set).
  std::size_t training_size = 0;
  /// Crowd-only classification at this time (nullopt = unclassified).
  std::vector<std::optional<bool>> crowd_classification;
  /// Perceptual-space extraction for *all* items at this time; empty until
  /// the training set contains both classes.
  std::vector<bool> extracted;
  bool extractor_trained = false;
};

/// Options for the incremental loop.
struct IncrementalExpansionOptions {
  /// Retrain cadence: "every 5 minutes, all movies currently classified by
  /// the crowd-workers are added to [the training set]" (Experiment 4).
  double checkpoint_interval_minutes = 5.0;
  ExtractorOptions extractor;
  /// Hard budget caps (graceful degradation): checkpointing stops at the
  /// first checkpoint that crosses either cap, keeping every checkpoint
  /// produced so far — best-effort partial results instead of a crash or
  /// an empty answer. Infinity (the default) disables the cap.
  double max_dollars = std::numeric_limits<double>::infinity();
  double max_minutes = std::numeric_limits<double>::infinity();
  /// Cooperative stop signal, probed at every checkpoint boundary. When it
  /// fires the loop returns the checkpoints completed so far (partial
  /// results beat none — same shape as the budget caps above). The durable
  /// variant instead returns Cancelled / DeadlineExceeded, because its
  /// partial state lives in the manifest journal and is resumable. The
  /// default never fires.
  StopCondition stop;
};

/// Computes the state of the incremental loop at crowd time `now`: the
/// majority vote over judgments up to `now`, the training set it induces,
/// and the retrained extraction. This is the single-checkpoint kernel
/// shared by RunIncrementalExpansion and the durable/resume path
/// (expansion_manifest.h), which is why a resumed run is bit-identical to
/// an uninterrupted one. The batched extraction sweep probes `stop` per
/// block of items, so a cancel lands within milliseconds even inside a
/// large checkpoint. Returns nullopt when the stop fired mid-checkpoint;
/// callers treat that exactly like a stop at the previous checkpoint
/// boundary (partial checkpoints are never published). The default stop
/// never fires.
std::optional<ExpansionCheckpoint> ComputeExpansionCheckpoint(
    const PerceptualSpace& space,
    const std::vector<std::uint32_t>& sample_items,
    const std::vector<crowd::Judgment>& judgments, double now,
    const ExtractorOptions& extractor, const StopCondition& stop = {});

/// Validates the inputs of the incremental loop (used by
/// RunIncrementalExpansion and the durable variant): non-empty sample,
/// positive interval, non-negative total time, judgments inside the
/// sample.
[[nodiscard]] Status ValidateIncrementalExpansion(
    const std::vector<std::uint32_t>& sample_items,
    const std::vector<crowd::Judgment>& judgments, double total_minutes,
    const IncrementalExpansionOptions& options);

/// Replays a crowd judgment stream over the sample `sample_items` (crowd
/// item id i corresponds to space item sample_items[i]), re-training the
/// extractor at every checkpoint on the currently majority-classified
/// items and extracting labels for the entire sample. The benches score
/// each checkpoint against reference labels to draw Figures 3 and 4.
/// Invalid inputs (see ValidateIncrementalExpansion) come back as an
/// error status instead of aborting the process.
[[nodiscard]]
StatusOr<std::vector<ExpansionCheckpoint>> RunIncrementalExpansion(
    const PerceptualSpace& space,
    const std::vector<std::uint32_t>& sample_items,
    const std::vector<crowd::Judgment>& judgments, double total_minutes,
    const IncrementalExpansionOptions& options);

/// End-to-end schema expansion (the Figure 2 workflow): crowd-source a
/// gold sample for the new attribute, train the extractor, and return
/// values for every item of the space.
struct SchemaExpansionRequest {
  /// Name of the new attribute (for reporting only).
  std::string attribute_name;
  /// Items to crowd-source as the gold sample.
  std::vector<std::uint32_t> gold_sample_items;
  ExtractorOptions extractor;
};

struct SchemaExpansionResult {
  /// Extracted Boolean attribute for every item in the space.
  std::vector<bool> values;
  /// Crowd statistics of the gold-sample acquisition.
  double crowd_minutes = 0.0;
  double crowd_dollars = 0.0;
  std::size_t gold_sample_classified = 0;
  /// Why the expansion failed, or Ok: the only success signal.
  Status status = Status::FailedPrecondition("expansion not run");
  /// Dispatch accounting.
  crowd::DispatchStats dispatch;
  /// One-class recovery rounds issued by the resilient path.
  std::size_t topup_rounds = 0;
};

/// Policy of the fault-tolerant expansion path.
struct ResilientExpansionOptions {
  /// Dispatcher policy (deadlines, reposts, budget caps). The dollar /
  /// minute caps bound the *whole* expansion including top-up rounds.
  crowd::DispatcherConfig dispatcher;
  /// One-class gold-sample recovery: when the crowd returns a single
  /// class, re-dispatch the still-unclassified items (a targeted top-up)
  /// with this many judgments each instead of failing outright.
  std::size_t topup_judgments_per_item = 7;
  std::size_t max_topups = 1;
  /// Stop signal for the *whole* expansion (probed between pipeline
  /// stages: after dispatch, before each top-up, before training and
  /// extraction). Stage-level signals nest inside it: `dispatcher.stop`
  /// may carry an earlier deadline so the crowd stage returns best-effort
  /// judgments while training still has budget left. The default never
  /// fires.
  StopCondition stop;
};

/// The one Boolean expansion pipeline: dispatch the gold sample to `pool`
/// under `hit_config` (true labels of the sample supplied for simulation),
/// majority-vote, train, extract all. It acquires the gold sample through
/// the Dispatcher (deadlines, reposts, dedup, budget caps) and degrades
/// gracefully — on a one-class sample it re-dispatches a targeted top-up
/// of the unclassified items; when the budget runs out it trains on
/// whatever arrived. The returned `status` explains any failure
/// (InvalidArgument for malformed requests, OutOfRange when the budget
/// died first, FailedPrecondition when the sample never yielded two
/// classes); crowd spend and dispatch stats are reported either way.
/// With the default options (infinite deadline) and a zeroed FaultModel
/// the dispatcher passes the RunCrowdTask stream through verbatim, so the
/// result equals RunCrowdTask -> MajorityVote -> Train -> ExtractAll.
SchemaExpansionResult ExpandSchemaResilient(
    const PerceptualSpace& space, const SchemaExpansionRequest& request,
    const crowd::WorkerPool& pool, const crowd::HitRunConfig& hit_config,
    const std::vector<bool>& sample_truth,
    const ResilientExpansionOptions& options = {});

}  // namespace ccdb::core

#endif  // CCDB_CORE_EXPANSION_H_
