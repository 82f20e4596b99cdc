#ifndef CCDB_E2EBENCH_BENCH_SUPPORT_H_
#define CCDB_E2EBENCH_BENCH_SUPPORT_H_

// Shared machinery of the end-to-end benchmark: run arguments, the metric
// report (end-to-end and per-layer), latency samples, process figures,
// the in-memory span recorder, and the two bench-side decorators that
// time the resolver and the transport from outside the library.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/sparse.h"
#include "core/extractor.h"
#include "core/perceptual_space.h"
#include "core/resolver.h"
#include "crowd/platform.h"
#include "crowd/worker.h"
#include "data/synthetic_world.h"
#include "db/database.h"
#include "net/transport.h"

namespace ccdb::e2e {

/// Workload-independent constants of the benchmark. Changing any of them
/// changes what the benchmark measures; they are recorded in every run.
inline constexpr double kWorldScale = 1.0;  // data::MoviesConfig(1.0)
/// Shortened SGD schedule shared by every workload: optimisations change
/// the cost per epoch, not the number of epochs.
inline constexpr int kEpochs = 2;
/// World generation + rating sampling is repeated this often per run and
/// setup_s reports the median.
inline constexpr int kSetupRepeats = 3;
/// Gold sample per new attribute (resolver and Expand jobs alike).
inline constexpr std::size_t kGoldSampleSize = 100;
inline constexpr std::size_t kJudgmentsPerItem = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for repeat counts, traces and shard
  /// journals.
  std::string state_dir = ".bench_build/e2e_state";
};

/// Wall-clock seconds on a monotonic clock.
double NowSeconds();
/// User + system CPU seconds of the whole process.
double ProcessCpuSeconds();
/// Peak resident set of the process, MB.
double PeakRssMb();

/// Latency samples of one operation class, in ms.
class Samples {
 public:
  void Add(double ms) { ms_.push_back(ms); }
  void Append(const Samples& other);
  std::size_t size() const { return ms_.size(); }
  bool empty() const { return ms_.empty(); }
  /// Nearest-rank quantile, q in (0, 1]. 0 when empty.
  double Quantile(double q) const;
  /// The highest quantile with at least kTailBeyond samples above it,
  /// q = 1 - kTailBeyond / n; 0 when that would not exceed the median
  /// (fewer than 2 * kTailBeyond samples).
  double TailQ() const;
  static constexpr std::size_t kTailBeyond = 10;

 private:
  std::vector<double> ms_;
};

/// Metric values of one run. End-to-end metrics are printed by untraced
/// runs, per-layer metrics by traced runs; both are declared up front
/// (every run prints every metric of its kind, 0 where a workload does
/// not touch a layer), so the output schema never depends on the data.
class Report {
 public:
  Report();
  void SetE2e(const std::string& name, double value);
  void SetLayer(const std::string& name, double value);
  double Layer(const std::string& name) const;
  /// A per-layer ratio together with its numerator and denominator,
  /// published as `<name>`, `<num_name>` and `<den_name>`.
  void SetRatio(const std::string& name, const std::string& num_name,
                double num, const std::string& den_name, double den);
  /// Median and tail quantile of `samples` as `<prefix>_p50_ms` /
  /// `<prefix>_tail_ms`, with the tail's q as `<prefix>_tail_q` and the
  /// sample count as `<prefix>_n` (see Samples::TailQ).
  void SetLatency(const std::string& prefix, const Samples& samples);

  /// Records an output check. Failed checks count toward `failed` and
  /// make the run exit non-zero.
  void Check(bool ok, const std::string& what);
  void CountOps(std::uint64_t attempted, std::uint64_t failed);
  bool correct() const { return checks_failed_ == 0; }

  /// Human-readable dump (stderr) and the final JSON line (stdout).
  void PrintText(bool trace) const;
  std::string ResultJson(bool trace) const;

  static const std::vector<std::pair<std::string, std::string>>&
  E2eCatalog();
  static const std::vector<std::pair<std::string, std::string>>&
  LayerCatalog();

 private:
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layer_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ops_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t checks_failed_ = 0;
};

// ---------------------------------------------------------------------------
// Span recorder.

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* layer = "";
  const char* name = "";
  double start = 0.0;  // NowSeconds()
  double end = 0.0;
};

/// In-memory span store. Disabled (the default) it records nothing and a
/// ScopedSpan costs one branch. Spans nest per thread; a span opened on
/// another thread (a router call-pool worker) names its parent and
/// request explicitly.
class Tracer {
 public:
  static Tracer& Get();
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  std::uint64_t NextId();
  void Record(const SpanRecord& span) EXCLUDES(mu_);
  std::vector<SpanRecord> Snapshot() const EXCLUDES(mu_);
  /// Writes every span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const EXCLUDES(mu_);

 private:
  // Read by router and shard threads that may still be draining hedges
  // when a phase flips tracing on or off.
  std::atomic<bool> enabled_{false};
  mutable Mutex mu_;
  std::uint64_t next_id_ GUARDED_BY(mu_) = 0;
  std::vector<SpanRecord> spans_ GUARDED_BY(mu_);
};

/// RAII span. Parent and request default to the innermost open span of
/// this thread.
class ScopedSpan {
 public:
  ScopedSpan(const char* layer, const char* name);
  ScopedSpan(const char* layer, const char* name, std::uint64_t parent,
             std::uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return record_.id; }
  std::uint64_t request() const { return record_.request; }

 private:
  bool active_ = false;
  SpanRecord record_;
  const ScopedSpan* outer_ = nullptr;
};

/// Per-span self time (ms) for spans of `layer` named `name` (one entry
/// per span, in recording order).
Samples SpanSelfTimes(const std::vector<SpanRecord>& spans,
                      const std::string& layer, const std::string& name);
Samples SpanDurations(const std::vector<SpanRecord>& spans,
                      const std::string& layer, const std::string& name);

// ---------------------------------------------------------------------------
// Bench-side decorators.

/// MissingAttributeResolver decorator: a `core.resolver` span around each
/// Resolve. A database holds its address, so it never moves.
class TimedResolver : public db::MissingAttributeResolver {
 public:
  explicit TimedResolver(db::MissingAttributeResolver* inner)
      : inner_(inner) {}
  TimedResolver(const TimedResolver&) = delete;
  TimedResolver& operator=(const TimedResolver&) = delete;
  [[nodiscard]] Status Resolve(db::Table& table,
                               const std::string& column_name) override;

 private:
  db::MissingAttributeResolver* inner_;
};

/// Maps a transport message to the benchmark operation that caused it, so
/// a span opened on a router worker thread can name its parent op.
class OpDirectory {
 public:
  struct Op {
    std::uint64_t span = 0;
    std::uint64_t request = 0;
  };
  void Register(std::uint64_t key, Op op) EXCLUDES(mu_);
  void Unregister(std::uint64_t key) EXCLUDES(mu_);
  Op Find(std::uint64_t key) const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::multimap<std::uint64_t, Op> ops_ GUARDED_BY(mu_);
};

/// Key under which an op's transport traffic is registered: knn by its
/// encoded request, expand by its job fingerprint, predict by its gold
/// sample plus the first requested item of each shard's sub-request.
std::uint64_t KnnKey(std::uint32_t item, std::uint32_t k);
std::uint64_t PredictKey(const std::vector<std::uint32_t>& gold_items,
                         std::uint32_t item);

/// net::Transport decorator: a `net` span around every Call and a
/// `core.shard` span around every handler invocation (servers register
/// through it), with per-method call latency samples. Untraced, it only
/// forwards.
class TimedTransport final : public net::Transport {
 public:
  TimedTransport(net::Transport& inner, const OpDirectory* ops)
      : inner_(inner), ops_(ops) {}
  [[nodiscard]] Status Register(std::uint32_t node,
                                net::Handler handler) override;
  void Unregister(std::uint32_t node) override;
  [[nodiscard]] StatusOr<std::string> Call(const net::Message& message,
                                           const StopCondition& stop) override;
  /// Per-method call latencies (ms) while tracing is on.
  std::map<std::string, Samples> CallSamples() const EXCLUDES(mu_);

 private:
  net::Transport& inner_;
  const OpDirectory* ops_;
  mutable Mutex mu_;
  std::map<std::string, Samples> call_ms_ GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Shared workload inputs.

/// The paper's movie world and a rating sample drawn with the run's seed,
/// generated kSetupRepeats times; the last world and its ratings are kept.
/// Publishes the data.* layer metrics.
struct WorldInputs {
  std::unique_ptr<data::SyntheticWorld> world;
  std::unique_ptr<RatingDataset> ratings;
  double setup_s = 0.0;  // median of the repeats
};
WorldInputs MakeWorld(const Args& args, Report& report);

/// Builds the space under a `factorization` span.
struct BuiltSpace {
  core::PerceptualSpace space;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // whole-process CPU over the build
};
BuiltSpace BuildSpace(const RatingDataset& ratings);
/// factorization.* metrics of a build (updates = ratings x epochs).
void PublishBuild(Report& report, const RatingDataset& ratings,
                  double wall_s, double cpu_s);

/// Honest simulated crowd used by every workload.
crowd::WorkerPool CrowdPool();
crowd::HitRunConfig CrowdConfig(std::uint64_t seed);

/// The `movies` table: one row per item (item_id, name, cluster).
db::Table MoviesTable(const data::SyntheticWorld& world);

/// Values of Boolean column `name` (empty when the table lacks it).
std::vector<bool> ReadBoolColumn(const db::Table& table,
                                 const std::string& name);

/// SQL name of genre `genre`'s perceptual attribute, e.g. "is_comedy".
std::string AttributeName(const data::SyntheticWorld& world,
                          std::size_t genre);
/// Boolean attribute of genre `genre`: a gold sample of `gold_items`
/// items, the world's labels as the crowd's truth.
core::PerceptualAttributeSpec GenreAttributeSpec(
    const data::SyntheticWorld& world, std::size_t genre,
    std::size_t gold_items);

/// g-mean of `values` against genre `genre`'s ground truth.
double GenreGMean(const data::SyntheticWorld& world, std::size_t genre,
                  const std::vector<bool>& values);

/// The decomposed expansion: the stages an expansion runs, driven
/// through their public functions and timed one by one.
struct DecomposedExpansion {
  std::vector<bool> values;
  std::size_t judgments = 0;
  std::size_t useful_judgments = 0;
  std::size_t gold_classified = 0;
  std::size_t support_vectors = 0;
  double dollars = 0.0;
  double minutes = 0.0;
  bool trained = false;
  // Stage wall times (ms).
  double crowd_ms = 0.0;
  double train_ms = 0.0;
  double predict_ms = 0.0;
};
DecomposedExpansion DecomposeExpansion(
    const core::PerceptualSpace& space,
    const std::vector<std::uint32_t>& gold_items,
    const std::vector<bool>& gold_truth, const crowd::WorkerPool& pool,
    const crowd::HitRunConfig& hit_config,
    const core::ExtractorOptions& extractor);

/// The gold items PerceptualExpansionResolver draws for a Boolean
/// attribute: its RNG is seeded with `resolver seed + number of registered
/// attributes`, so every attribute registered up front shares one gold
/// item set (a quirk recorded in e2ebench/design.json).
std::vector<std::uint32_t> ResolverGoldItems(std::uint64_t resolver_seed,
                                             std::size_t registered,
                                             std::size_t num_items,
                                             std::size_t gold_items);

/// Aggregates decomposed expansions into the crowd.* and svm.* metrics.
class DecompositionStats {
 public:
  void Add(const DecomposedExpansion& expansion, std::size_t gold_items);
  void Publish(Report& report) const;

 private:
  Samples crowd_ms_, train_ms_, predict_ms_;
  double judgments_ = 0, useful_ = 0, gold_items_ = 0, classified_ = 0;
  double support_vectors_ = 0, predicted_items_ = 0, predict_s_ = 0;
};

/// Exact-repeat counts: compared against the counts an earlier run of the
/// same binary with the same workload and seed stored under
/// <state dir>/counts/; the first such run stores them. The file name
/// carries a hash of the running binary, so a rebuilt program (whose
/// numerics may legitimately differ) starts a fresh reference.
void CheckRepeatCounts(const Args& args,
                       const std::map<std::string, double>& counts,
                       Report& report);

/// Scratch directory of this process under .bench_build/ (created).
std::string ScratchDir(const Args& args);

/// Host and configuration facts published with every run.
void PublishHost(Report& report, std::size_t clients,
                 std::size_t router_call_workers,
                 std::size_t router_fanout_workers,
                 std::size_t shard_service_workers);

/// Wall and process CPU time of a phase's operations. Work between
/// operations that is not itself an operation (session recycling, the
/// decomposed passes) runs inside a Paused scope and is left out.
class PhaseClock {
 public:
  PhaseClock() : wall_start_(NowSeconds()), cpu_start_(ProcessCpuSeconds()) {}
  double wall_s() const { return NowSeconds() - wall_start_ - paused_wall_; }
  double cpu_s() const {
    return ProcessCpuSeconds() - cpu_start_ - paused_cpu_;
  }

  class Paused {
   public:
    explicit Paused(PhaseClock& clock)
        : clock_(clock), wall_(NowSeconds()), cpu_(ProcessCpuSeconds()) {}
    ~Paused() {
      clock_.paused_wall_ += NowSeconds() - wall_;
      clock_.paused_cpu_ += ProcessCpuSeconds() - cpu_;
    }
    Paused(const Paused&) = delete;
    Paused& operator=(const Paused&) = delete;

   private:
    PhaseClock& clock_;
    double wall_;
    double cpu_;
  };

 private:
  double wall_start_;
  double cpu_start_;
  double paused_wall_ = 0.0;
  double paused_cpu_ = 0.0;
};

/// Outcome of one timed closed-loop phase.
struct PhaseResult {
  Samples op;       // every operation
  Samples expand;   // operations that create a new attribute
  Samples read;     // SQL statements over materialized columns
  Samples predict;  // router Predict
  Samples knn;      // router Knn
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // failed or wrong operations
  double wall_s = 0.0;       // PhaseClock::wall_s at the end of the phase
  double cpu_s = 0.0;
};

/// Runs the workload's timed phase. Untraced runs measure one phase of
/// args.seconds and publish the end-to-end metrics. Traced runs measure an
/// untraced and a traced phase of half the time each, publish the lat.*
/// and proc.* metrics of the traced one, the tracing overhead, the
/// self time per layer, and write the spans out. Returns the traced
/// phase's [start, end] (0, 0 when untraced).
template <typename Phase>
std::pair<double, double> RunPhases(const Args& args, Report& report,
                                    Phase&& phase);
void PublishPhase(Report& report, const PhaseResult& result, bool e2e);
void PublishTraced(const Args& args, Report& report,
                   const PhaseResult& untraced, const PhaseResult& traced,
                   double t0, double t1);

template <typename Phase>
std::pair<double, double> RunPhases(const Args& args, Report& report,
                                    Phase&& phase) {
  if (!args.trace) {
    PublishPhase(report, phase(args.seconds), /*e2e=*/true);
    return {0.0, 0.0};
  }
  const PhaseResult untraced = phase(args.seconds / 2);
  Tracer::Get().Enable(true);
  const double t0 = NowSeconds();
  const PhaseResult traced = phase(args.seconds / 2);
  const double t1 = NowSeconds();
  Tracer::Get().Enable(false);
  PublishTraced(args, report, untraced, traced, t0, t1);
  return {t0, t1};
}

// Workloads. Each fills `report` and returns normally; failed checks are
// recorded in the report.
void RunColdBuild(const Args& args, Report& report);
void RunSqlExpand(const Args& args, Report& report);
void RunServeMixed(const Args& args, Report& report);

}  // namespace ccdb::e2e

#endif  // CCDB_E2EBENCH_BENCH_SUPPORT_H_
