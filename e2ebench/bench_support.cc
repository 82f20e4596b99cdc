#include "bench_support.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "common/check.h"
#include "common/journal.h"
#include "common/rng.h"
#include "crowd/aggregation.h"
#include "data/domains.h"
#include "eval/metrics.h"
#include "core/expansion_wire.h"

namespace ccdb::e2e {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Samples.

void Samples::Append(const Samples& other) {
  ms_.insert(ms_.end(), other.ms_.begin(), other.ms_.end());
}

double Samples::Quantile(double q) const {
  if (ms_.empty()) return 0.0;
  std::vector<double> sorted = ms_;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double Samples::TailQ() const {
  if (ms_.size() < 2 * kTailBeyond) return 0.0;
  return 1.0 - static_cast<double>(kTailBeyond) /
                   static_cast<double>(ms_.size());
}

// ---------------------------------------------------------------------------
// Report.

namespace {

using Catalog = std::vector<std::pair<std::string, std::string>>;

void AddLatency(Catalog& catalog, const std::string& prefix) {
  catalog.emplace_back(prefix + "_p50_ms", "ms");
  catalog.emplace_back(prefix + "_tail_ms", "ms");
  catalog.emplace_back(prefix + "_tail_q", "ratio");
  catalog.emplace_back(prefix + "_n", "count");
}

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

const Catalog& Report::E2eCatalog() {
  static const Catalog catalog = {
      {"setup_s", "s"},
      {"cold_run_s", "s"},
      {"ops_per_s", "ops/s"},
      {"op_p50_ms", "ms"},
      {"gmean", "ratio"},
      {"crowd_dollars_per_attr", "USD"},
      {"crowd_minutes_per_attr", "min"},
      {"peak_rss_mb", "MB"},
  };
  return catalog;
}

const Catalog& Report::LayerCatalog() {
  static const Catalog catalog = [] {
    Catalog c;
    // Process-wide figures and run configuration.
    for (const char* name :
         {"host.nproc", "host.clients", "host.router_call_workers",
          "host.router_fanout_workers", "host.shard_service_workers",
          "host.epochs", "host.world_items", "host.world_users"}) {
      c.emplace_back(name, "count");
    }
    c.emplace_back("host.world_scale", "ratio");
    c.emplace_back("host.march_native", "bool");
    c.emplace_back("proc.cores_used", "cores");
    c.emplace_back("proc.cpu_s", "s");
    c.emplace_back("proc.wall_s", "s");
    c.emplace_back("proc.failed_frac", "ratio");
    c.emplace_back("proc.failed", "count");
    c.emplace_back("proc.attempted", "count");
    // Workload-level latency classes of the traced phase.
    AddLatency(c, "lat.op");
    AddLatency(c, "lat.expand");
    AddLatency(c, "lat.read");
    AddLatency(c, "lat.predict");
    AddLatency(c, "lat.knn");
    // data
    c.emplace_back("data.sample_ratings_s", "s");
    c.emplace_back("data.ratings", "count");
    // factorization
    c.emplace_back("factorization.build_s", "s");
    c.emplace_back("factorization.updates", "count");
    c.emplace_back("factorization.updates_per_s", "1/s");
    c.emplace_back("factorization.cores_used", "cores");
    c.emplace_back("factorization.cpu_s", "s");
    // eval
    c.emplace_back("eval.knn_check_ms", "ms");
    c.emplace_back("eval.knn_same_cluster_frac", "ratio");
    c.emplace_back("eval.knn_same_cluster", "count");
    c.emplace_back("eval.knn_neighbors", "count");
    // core.quality
    c.emplace_back("core.quality.check_ms", "ms");
    c.emplace_back("core.quality.flag_recall", "ratio");
    c.emplace_back("core.quality.flagged_flipped", "count");
    c.emplace_back("core.quality.flipped", "count");
    // db + resolver
    c.emplace_back("db.execute_ms", "ms");
    c.emplace_back("db.self_ms", "ms");
    c.emplace_back("db.statements", "count");
    c.emplace_back("core.resolver.resolve_ms", "ms");
    c.emplace_back("core.resolver.resolves", "count");
    // crowd
    c.emplace_back("crowd.run_ms", "ms");
    c.emplace_back("crowd.runs", "count");
    c.emplace_back("crowd.judgments", "count");
    c.emplace_back("crowd.useful_judgment_frac", "ratio");
    c.emplace_back("crowd.useful_judgments", "count");
    c.emplace_back("crowd.wasted_dollars", "USD");
    c.emplace_back("crowd.gold_classified_frac", "ratio");
    c.emplace_back("crowd.gold_classified", "count");
    c.emplace_back("crowd.gold_items", "count");
    // svm
    c.emplace_back("svm.train_ms", "ms");
    c.emplace_back("svm.trains", "count");
    c.emplace_back("svm.support_vectors", "count");
    c.emplace_back("svm.predict_all_ms", "ms");
    c.emplace_back("svm.predict_items_per_s", "1/s");
    c.emplace_back("svm.predicted_items", "count");
    c.emplace_back("svm.predict_wall_s", "s");
    // core.router
    c.emplace_back("core.router.self_ms", "ms");
    c.emplace_back("core.router.requests", "count");
    c.emplace_back("core.router.attempts_per_op", "ratio");
    c.emplace_back("core.router.attempts", "count");
    c.emplace_back("core.router.hedge_rate", "ratio");
    c.emplace_back("core.router.hedges_fired", "count");
    c.emplace_back("core.router.hedge_win_frac", "ratio");
    c.emplace_back("core.router.hedge_wins", "count");
    c.emplace_back("core.router.retry_rate", "ratio");
    c.emplace_back("core.router.retries", "count");
    c.emplace_back("core.router.partial_frac", "ratio");
    c.emplace_back("core.router.partial", "count");
    // net
    AddLatency(c, "net.call_predict");
    AddLatency(c, "net.call_knn");
    AddLatency(c, "net.call_expand");
    c.emplace_back("net.calls_per_op", "ratio");
    c.emplace_back("net.calls", "count");
    c.emplace_back("net.ops", "count");
    // core.shard
    c.emplace_back("core.shard.load_imbalance", "ratio");
    c.emplace_back("core.shard.max_requests", "count");
    c.emplace_back("core.shard.mean_requests", "count");
    c.emplace_back("core.shard.expand_cache_hit_frac", "ratio");
    c.emplace_back("core.shard.expand_cache_hits", "count");
    c.emplace_back("core.shard.expands", "count");
    // core.service
    c.emplace_back("core.service.dedup_frac", "ratio");
    c.emplace_back("core.service.deduped", "count");
    c.emplace_back("core.service.submitted", "count");
    c.emplace_back("core.service.shed", "count");
    c.emplace_back("core.service.useful_pipeline_frac", "ratio");
    c.emplace_back("core.service.distinct_jobs", "count");
    c.emplace_back("core.service.expansions_run", "count");
    // Self time per layer over the traced phase, and tracing cost.
    for (const char* layer :
         {"workload", "data", "factorization", "eval", "crowd", "svm", "db",
          "core.resolver", "core.quality", "core.router", "core.shard",
          "net"}) {
      c.emplace_back(std::string("self.") + layer + "_ms", "ms");
    }
    c.emplace_back("trace.spans", "count");
    c.emplace_back("trace.untraced_op_p50_ms", "ms");
    c.emplace_back("trace.traced_op_p50_ms", "ms");
    c.emplace_back("trace.overhead_ms", "ms");
    return c;
  }();
  return catalog;
}

Report::Report() {
  for (const auto& [name, unit] : E2eCatalog()) e2e_[name] = 0.0;
  for (const auto& [name, unit] : LayerCatalog()) layer_[name] = 0.0;
}

void Report::SetE2e(const std::string& name, double value) {
  auto it = e2e_.find(name);
  CCDB_CHECK_MSG(it != e2e_.end(), "unknown end-to-end metric " + name);
  it->second = value;
}

void Report::SetLayer(const std::string& name, double value) {
  auto it = layer_.find(name);
  CCDB_CHECK_MSG(it != layer_.end(), "unknown per-layer metric " + name);
  it->second = value;
}

double Report::Layer(const std::string& name) const {
  auto it = layer_.find(name);
  CCDB_CHECK_MSG(it != layer_.end(), "unknown per-layer metric " + name);
  return it->second;
}

void Report::SetRatio(const std::string& name, const std::string& num_name,
                      double num, const std::string& den_name, double den) {
  SetLayer(name, den > 0.0 ? num / den : 0.0);
  SetLayer(num_name, num);
  SetLayer(den_name, den);
}

void Report::SetLatency(const std::string& prefix, const Samples& samples) {
  SetLayer(prefix + "_p50_ms", samples.Quantile(0.50));
  const double tail_q = samples.TailQ();
  SetLayer(prefix + "_tail_ms", tail_q > 0.0 ? samples.Quantile(tail_q) : 0.0);
  SetLayer(prefix + "_tail_q", tail_q);
  SetLayer(prefix + "_n", static_cast<double>(samples.size()));
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++checks_failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::CountOps(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ops_ += failed;
}

void Report::PrintText(bool trace) const {
  const auto& catalog = trace ? LayerCatalog() : E2eCatalog();
  const auto& values = trace ? layer_ : e2e_;
  for (const auto& [name, unit] : catalog) {
    std::fprintf(stderr, "  %-36s %16.6f %s\n", name.c_str(),
                 values.at(name), unit.c_str());
  }
  std::fprintf(stderr,
               "  ops attempted %llu failed %llu; checks %llu failed %llu\n",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_ops_),
               static_cast<unsigned long long>(checks_),
               static_cast<unsigned long long>(checks_failed_));
}

std::string Report::ResultJson(bool trace) const {
  const auto& catalog = trace ? LayerCatalog() : E2eCatalog();
  const auto& values = trace ? layer_ : e2e_;
  std::ostringstream out;
  // Checks count as attempted units too: a wrong output is a failure even
  // when the operation that produced it returned Ok.
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << (attempted_ + checks_)
      << ", \"failed\": " << (failed_ops_ + checks_failed_)
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : catalog) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
        << FormatNumber(values.at(name)) << ", \"unit\": \"" << unit
        << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Tracing.

namespace {
thread_local const ScopedSpan* current_span = nullptr;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

std::uint64_t Tracer::NextId() {
  MutexLock lock(mu_);
  return ++next_id_;
}

void Tracer::Record(const SpanRecord& span) {
  MutexLock lock(mu_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  MutexLock lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  MutexLock lock(mu_);
  for (const SpanRecord& s : spans_) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"layer\": \"" << s.layer
        << "\", \"name\": \"" << s.name
        << "\", \"start\": " << FormatNumber(s.start)
        << ", \"end\": " << FormatNumber(s.end) << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* layer, const char* name)
    : ScopedSpan(layer, name, current_span ? current_span->id() : 0,
                 current_span ? current_span->request() : 0) {}

ScopedSpan::ScopedSpan(const char* layer, const char* name,
                       std::uint64_t parent, std::uint64_t request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  record_.id = tracer.NextId();
  record_.parent = parent;
  record_.request = request != 0 ? request : record_.id;
  record_.layer = layer;
  record_.name = name;
  outer_ = current_span;
  current_span = this;
  record_.start = NowSeconds();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  record_.end = NowSeconds();
  current_span = outer_;
  Tracer::Get().Record(record_);
}

namespace {

/// Length of the union of [start, end) intervals clipped to [lo, hi].
double CoveredSeconds(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

std::map<std::uint64_t, std::vector<std::pair<double, double>>> ChildIntervals(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  return children;
}

double SelfSeconds(
    const SpanRecord& span,
    const std::map<std::uint64_t, std::vector<std::pair<double, double>>>&
        children) {
  auto it = children.find(span.id);
  const double covered =
      it == children.end() ? 0.0
                           : CoveredSeconds(it->second, span.start, span.end);
  return std::max(0.0, span.end - span.start - covered);
}

/// Self time per layer over [t0, t1]: each span's duration minus the part
/// of it covered by its children, summed per layer (ms).
std::map<std::string, double> LayerSelfTimes(
    const std::vector<SpanRecord>& spans, double t0, double t1) {
  const auto children = ChildIntervals(spans);
  std::map<std::string, double> self_ms;
  for (const SpanRecord& span : spans) {
    if (span.start < t0 || span.end > t1) continue;
    self_ms[span.layer] += SelfSeconds(span, children) * 1e3;
  }
  return self_ms;
}

/// Publishes self time per layer and the span count of [t0, t1], and
/// writes every span out.
void PublishTrace(Report& report, double t0, double t1,
                  const std::string& trace_path) {
  const std::vector<SpanRecord> spans = Tracer::Get().Snapshot();
  std::size_t in_phase = 0;
  for (const SpanRecord& span : spans) {
    if (span.start >= t0 && span.end <= t1) ++in_phase;
  }
  report.SetLayer("trace.spans", static_cast<double>(in_phase));
  for (const auto& [layer, ms] : LayerSelfTimes(spans, t0, t1)) {
    const std::string name = "self." + layer + "_ms";
    for (const auto& entry : Report::LayerCatalog()) {
      if (entry.first == name) report.SetLayer(name, ms);
    }
  }
  if (!Tracer::Get().WriteJsonl(trace_path)) {
    std::fprintf(stderr, "warning: could not write %s\n", trace_path.c_str());
  } else {
    std::fprintf(stderr, "trace: %zu spans -> %s\n", spans.size(),
                 trace_path.c_str());
  }
}

}  // namespace

Samples SpanSelfTimes(const std::vector<SpanRecord>& spans,
                      const std::string& layer, const std::string& name) {
  const auto children = ChildIntervals(spans);
  Samples samples;
  for (const SpanRecord& span : spans) {
    if (layer == span.layer && name == span.name) {
      samples.Add(SelfSeconds(span, children) * 1e3);
    }
  }
  return samples;
}

Samples SpanDurations(const std::vector<SpanRecord>& spans,
                      const std::string& layer, const std::string& name) {
  Samples samples;
  for (const SpanRecord& span : spans) {
    if (layer == span.layer && name == span.name) {
      samples.Add((span.end - span.start) * 1e3);
    }
  }
  return samples;
}

// ---------------------------------------------------------------------------
// Decorators.

Status TimedResolver::Resolve(db::Table& table,
                              const std::string& column_name) {
  ScopedSpan span("core.resolver", "Resolve");
  return inner_->Resolve(table, column_name);
}

void OpDirectory::Register(std::uint64_t key, Op op) {
  MutexLock lock(mu_);
  ops_.emplace(key, op);
}

void OpDirectory::Unregister(std::uint64_t key) {
  MutexLock lock(mu_);
  auto it = ops_.find(key);
  if (it != ops_.end()) ops_.erase(it);
}

OpDirectory::Op OpDirectory::Find(std::uint64_t key) const {
  MutexLock lock(mu_);
  auto it = ops_.find(key);
  return it == ops_.end() ? Op{} : it->second;
}

namespace {
constexpr std::uint64_t kKnnSalt = 0x6b6e6e0000000000ull;
constexpr std::uint64_t kPredictSalt = 0x7072656400000000ull;
}  // namespace

std::uint64_t KnnKey(std::uint32_t item, std::uint32_t k) {
  return HashBytes(core::EncodeKnnRequest(core::KnnRequest{item, k})) ^
         kKnnSalt;
}

std::uint64_t PredictKey(const std::vector<std::uint32_t>& gold_items,
                         std::uint32_t item) {
  std::string bytes(reinterpret_cast<const char*>(gold_items.data()),
                    gold_items.size() * sizeof(std::uint32_t));
  return HashBytes(bytes) ^ kPredictSalt ^
         (static_cast<std::uint64_t>(item) * 0x9E3779B97F4A7C15ull);
}

namespace {

std::uint64_t MessageKey(const net::Message& message) {
  if (message.method == "knn") return HashBytes(message.payload) ^ kKnnSalt;
  if (message.method == "expand") return message.request_id;
  if (message.method == "predict") {
    StatusOr<core::PredictRequest> request =
        core::DecodePredictRequest(message.payload);
    if (!request.ok() || request.value().items.empty()) return 0;
    return PredictKey(request.value().gold_items,
                      request.value().items.front());
  }
  return 0;
}

const char* MethodName(const std::string& method) {
  if (method == "predict") return "predict";
  if (method == "knn") return "knn";
  if (method == "expand") return "expand";
  return "other";
}
}  // namespace

Status TimedTransport::Register(std::uint32_t node, net::Handler handler) {
  return inner_.Register(
      node, [handler = std::move(handler)](const net::Message& message) {
        ScopedSpan span("core.shard", MethodName(message.method));
        return handler(message);
      });
}

void TimedTransport::Unregister(std::uint32_t node) {
  inner_.Unregister(node);
}

StatusOr<std::string> TimedTransport::Call(const net::Message& message,
                                           const StopCondition& stop) {
  OpDirectory::Op op;
  if (Tracer::Get().enabled() && ops_ != nullptr) {
    op = ops_->Find(MessageKey(message));
  }
  ScopedSpan span("net", MethodName(message.method), op.span, op.request);
  const double start = NowSeconds();
  StatusOr<std::string> response = inner_.Call(message, stop);
  if (Tracer::Get().enabled()) {
    const double ms = (NowSeconds() - start) * 1e3;
    MutexLock lock(mu_);
    call_ms_[message.method].Add(ms);
  }
  return response;
}

std::map<std::string, Samples> TimedTransport::CallSamples() const {
  MutexLock lock(mu_);
  return call_ms_;
}

// ---------------------------------------------------------------------------
// Workload inputs.

WorldInputs MakeWorld(const Args& args, Report& report) {
  // The paper's movie world is one fixed world; the workload seed picks
  // the rating sample drawn from it.
  const data::WorldConfig config = data::MoviesConfig(kWorldScale);
  WorldInputs inputs;
  Samples setup_ms, sample_ms;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    inputs.ratings.reset();
    inputs.world.reset();
    const double start = NowSeconds();
    inputs.world = std::make_unique<data::SyntheticWorld>(config);
    const double sampled = NowSeconds();
    inputs.ratings = std::make_unique<RatingDataset>(
        inputs.world->SampleRatings(args.seed));
    const double end = NowSeconds();
    setup_ms.Add((end - start) * 1e3);
    sample_ms.Add((end - sampled) * 1e3);
  }
  inputs.setup_s = setup_ms.Quantile(0.5) / 1e3;
  report.SetLayer("data.sample_ratings_s", sample_ms.Quantile(0.5) / 1e3);
  report.SetLayer("data.ratings",
                  static_cast<double>(inputs.ratings->num_ratings()));
  report.SetLayer("host.world_items",
                  static_cast<double>(inputs.world->num_items()));
  report.SetLayer("host.world_users",
                  static_cast<double>(inputs.world->num_users()));
  return inputs;
}

namespace {

core::PerceptualSpaceOptions SpaceOptions() {
  // The paper's model (d = 100, λ = 0.02) and learning-rate schedule, with
  // the shortened epoch count.
  core::PerceptualSpaceOptions options;
  options.model.dims = 100;
  options.model.lambda = 0.02;
  options.trainer.max_epochs = kEpochs;
  options.trainer.learning_rate = 0.05;
  options.trainer.lr_decay = 0.97;
  return options;
}

}  // namespace

BuiltSpace BuildSpace(const RatingDataset& ratings) {
  ScopedSpan span("factorization", "Build");
  const double cpu = ProcessCpuSeconds();
  const double start = NowSeconds();
  core::PerceptualSpace space =
      core::PerceptualSpace::Build(ratings, SpaceOptions());
  return BuiltSpace{std::move(space), NowSeconds() - start,
                    ProcessCpuSeconds() - cpu};
}

void PublishBuild(Report& report, const RatingDataset& ratings,
                  double wall_s, double cpu_s) {
  const double updates =
      static_cast<double>(ratings.num_ratings()) * kEpochs;
  report.SetLayer("factorization.build_s", wall_s);
  report.SetLayer("factorization.updates", updates);
  report.SetLayer("factorization.updates_per_s", updates / wall_s);
  report.SetRatio("factorization.cores_used", "factorization.cpu_s", cpu_s,
                  "factorization.build_s", wall_s);
}

crowd::WorkerPool CrowdPool() {
  crowd::WorkerPool pool;
  for (int i = 0; i < 12; ++i) {
    crowd::WorkerProfile worker;
    worker.honest = true;
    worker.knowledge = 0.9;
    worker.accuracy = 0.93;
    worker.judgments_per_minute = 2.5;
    pool.workers.push_back(worker);
  }
  return pool;
}

crowd::HitRunConfig CrowdConfig(std::uint64_t seed) {
  crowd::HitRunConfig config;
  config.judgments_per_item = kJudgmentsPerItem;
  config.perception_flip_rate = 0.05;
  config.seed = seed;
  return config;
}

db::Table MoviesTable(const data::SyntheticWorld& world) {
  db::Schema schema({{"item_id", db::ColumnType::kInt},
                     {"name", db::ColumnType::kString},
                     {"cluster", db::ColumnType::kInt}});
  db::Table movies("movies", schema);
  for (std::uint32_t m = 0; m < world.num_items(); ++m) {
    const Status appended = movies.AppendRow(
        {db::Value(static_cast<std::int64_t>(m)), db::Value(world.ItemName(m)),
         db::Value(static_cast<std::int64_t>(world.ClusterOf(m)))});
    CCDB_CHECK_MSG(appended.ok(), appended.ToString());
  }
  return movies;
}

std::vector<bool> ReadBoolColumn(const db::Table& table,
                                 const std::string& name) {
  const std::size_t column = table.schema().FindColumn(name);
  std::vector<bool> values;
  if (column == db::Schema::kNotFound) return values;
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    values.push_back(std::get<bool>(table.Get(row, column)));
  }
  return values;
}

std::string AttributeName(const data::SyntheticWorld& world,
                          std::size_t genre) {
  std::string name = "is_" + world.config().genres[genre].name;
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  return name;
}

core::PerceptualAttributeSpec GenreAttributeSpec(
    const data::SyntheticWorld& world, std::size_t genre,
    std::size_t gold_items) {
  core::PerceptualAttributeSpec spec;
  spec.type = db::ColumnType::kBool;
  spec.gold_sample_size = gold_items;
  spec.bool_truth = [&world, genre](std::uint32_t item) {
    return world.GenreLabel(genre, item);
  };
  return spec;
}

double GenreGMean(const data::SyntheticWorld& world, std::size_t genre,
                  const std::vector<bool>& values) {
  if (values.size() != world.num_items()) return 0.0;
  return eval::GMean(eval::CountConfusion(values, world.GenreLabels(genre)));
}

DecomposedExpansion DecomposeExpansion(
    const core::PerceptualSpace& space,
    const std::vector<std::uint32_t>& gold_items,
    const std::vector<bool>& gold_truth, const crowd::WorkerPool& pool,
    const crowd::HitRunConfig& hit_config,
    const core::ExtractorOptions& extractor_options) {
  DecomposedExpansion out;
  double t = NowSeconds();
  crowd::CrowdRunResult run;
  {
    ScopedSpan span("crowd", "RunCrowdTask");
    run = crowd::RunCrowdTask(pool, gold_truth, hit_config);
  }
  out.crowd_ms = (NowSeconds() - t) * 1e3;
  out.dollars = run.total_cost_dollars;
  out.minutes = run.total_minutes;
  for (const crowd::Judgment& judgment : run.judgments) {
    if (judgment.is_gold) continue;
    ++out.judgments;
    if (judgment.answer != crowd::Answer::kDontKnow) ++out.useful_judgments;
  }

  std::vector<std::optional<bool>> classification;
  {
    ScopedSpan span("crowd", "MajorityVote");
    classification = crowd::MajorityVote(run.judgments, gold_items.size(),
                                         run.total_minutes);
  }
  std::vector<std::uint32_t> items;
  std::vector<bool> labels;
  for (std::size_t i = 0; i < classification.size(); ++i) {
    if (classification[i].has_value()) {
      items.push_back(gold_items[i]);
      labels.push_back(*classification[i]);
    }
  }
  out.gold_classified = items.size();

  core::BinaryAttributeExtractor extractor(extractor_options);
  t = NowSeconds();
  {
    ScopedSpan span("svm", "Train");
    out.trained = extractor.Train(space, items, labels);
  }
  out.train_ms = (NowSeconds() - t) * 1e3;
  if (!out.trained) return out;
  out.support_vectors = extractor.model().num_support_vectors();
  t = NowSeconds();
  {
    ScopedSpan span("svm", "ExtractAll");
    out.values = extractor.ExtractAll(space);
  }
  out.predict_ms = (NowSeconds() - t) * 1e3;
  return out;
}

std::vector<std::uint32_t> ResolverGoldItems(std::uint64_t resolver_seed,
                                             std::size_t registered,
                                             std::size_t num_items,
                                             std::size_t gold_items) {
  Rng rng(resolver_seed + registered);
  std::vector<std::uint32_t> items;
  for (std::size_t index : rng.SampleWithoutReplacement(
           num_items, std::min(gold_items, num_items))) {
    items.push_back(static_cast<std::uint32_t>(index));
  }
  return items;
}

void DecompositionStats::Add(const DecomposedExpansion& expansion,
                             std::size_t gold_items) {
  crowd_ms_.Add(expansion.crowd_ms);
  judgments_ += static_cast<double>(expansion.judgments);
  useful_ += static_cast<double>(expansion.useful_judgments);
  gold_items_ += static_cast<double>(gold_items);
  classified_ += static_cast<double>(expansion.gold_classified);
  if (!expansion.trained) return;
  train_ms_.Add(expansion.train_ms);
  predict_ms_.Add(expansion.predict_ms);
  support_vectors_ += static_cast<double>(expansion.support_vectors);
  predicted_items_ += static_cast<double>(expansion.values.size());
  predict_s_ += expansion.predict_ms / 1e3;
}

void DecompositionStats::Publish(Report& report) const {
  report.SetLayer("crowd.run_ms", crowd_ms_.Quantile(0.5));
  report.SetLayer("crowd.runs", static_cast<double>(crowd_ms_.size()));
  report.SetRatio("crowd.useful_judgment_frac", "crowd.useful_judgments",
                  useful_, "crowd.judgments", judgments_);
  report.SetRatio("crowd.gold_classified_frac", "crowd.gold_classified",
                  classified_, "crowd.gold_items", gold_items_);
  report.SetLayer("svm.train_ms", train_ms_.Quantile(0.5));
  report.SetLayer("svm.trains", static_cast<double>(train_ms_.size()));
  report.SetLayer("svm.support_vectors", support_vectors_);
  report.SetLayer("svm.predict_all_ms", predict_ms_.Quantile(0.5));
  report.SetRatio("svm.predict_items_per_s", "svm.predicted_items",
                  predicted_items_, "svm.predict_wall_s", predict_s_);
}

void PublishPhase(Report& report, const PhaseResult& result, bool e2e) {
  report.CountOps(result.attempted, result.failed);
  if (e2e) {
    report.SetE2e("ops_per_s",
                  static_cast<double>(result.op.size()) / result.wall_s);
    report.SetE2e("op_p50_ms", result.op.Quantile(0.5));
  }
  report.SetLatency("lat.op", result.op);
  report.SetLatency("lat.expand", result.expand);
  report.SetLatency("lat.read", result.read);
  report.SetLatency("lat.predict", result.predict);
  report.SetLatency("lat.knn", result.knn);
  report.SetRatio("proc.cores_used", "proc.cpu_s", result.cpu_s,
                  "proc.wall_s", result.wall_s);
  report.SetRatio("proc.failed_frac", "proc.failed",
                  static_cast<double>(result.failed), "proc.attempted",
                  static_cast<double>(result.attempted));
  std::fprintf(stderr,
               "phase: %.2fs wall, %llu ops (%llu failed); op n=%zu "
               "expand n=%zu read n=%zu predict n=%zu knn n=%zu\n",
               result.wall_s,
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed),
               result.op.size(), result.expand.size(), result.read.size(),
               result.predict.size(), result.knn.size());
}

void PublishTraced(const Args& args, Report& report,
                   const PhaseResult& untraced, const PhaseResult& traced,
                   double t0, double t1) {
  report.CountOps(untraced.attempted, untraced.failed);
  PublishPhase(report, traced, /*e2e=*/false);
  const double untraced_p50 = untraced.op.Quantile(0.5);
  const double traced_p50 = traced.op.Quantile(0.5);
  report.SetLayer("trace.untraced_op_p50_ms", untraced_p50);
  report.SetLayer("trace.traced_op_p50_ms", traced_p50);
  report.SetLayer("trace.overhead_ms", traced_p50 - untraced_p50);
  const std::string dir = args.state_dir + "/traces";
  std::filesystem::create_directories(dir);
  PublishTrace(report, t0, t1,
               dir + "/" + args.workload + "-seed" +
                   std::to_string(args.seed) + ".jsonl");
}

// ---------------------------------------------------------------------------
// Repeat counts, scratch space, host facts.

std::string ScratchDir(const Args& args) {
  const std::string dir = args.state_dir + "/scratch-" +
                          std::to_string(static_cast<long long>(getpid()));
  std::filesystem::create_directories(dir);
  return dir;
}

namespace {

/// Hash of the running binary's bytes, in hex.
std::string BinaryHash() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  CCDB_CHECK_MSG(!bytes.empty(), "cannot read the running binary");
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(HashBytes(bytes)));
  return hex;
}

}  // namespace

void CheckRepeatCounts(const Args& args,
                       const std::map<std::string, double>& counts,
                       Report& report) {
  const std::string dir = args.state_dir + "/counts";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-build" +
                           BinaryHash() + ".txt";
  std::ifstream in(path);
  if (!in) {
    std::ofstream out(path);
    for (const auto& [name, value] : counts) {
      out << name << ' ' << FormatNumber(value) << '\n';
    }
    std::fprintf(stderr, "repeat counts: first run of this binary and seed, "
                 "stored %s\n",
                 path.c_str());
    return;
  }
  std::map<std::string, std::string> stored;
  std::string name, value;
  while (in >> name >> value) stored[name] = value;
  for (const auto& [count_name, count] : counts) {
    auto it = stored.find(count_name);
    const bool same =
        it != stored.end() && it->second == FormatNumber(count);
    report.Check(same, "repeat count " + count_name + " = " +
                           FormatNumber(count) + " differs from an earlier "
                           "run of this binary and seed (" +
                           (it == stored.end() ? "absent" : it->second) +
                           ")");
  }
  std::fprintf(stderr, "repeat counts: compared %zu counts with %s\n",
               counts.size(), path.c_str());
}

void PublishHost(Report& report, std::size_t clients,
                 std::size_t router_call_workers,
                 std::size_t router_fanout_workers,
                 std::size_t shard_service_workers) {
  report.SetLayer("host.nproc",
                  static_cast<double>(std::thread::hardware_concurrency()));
  report.SetLayer("host.clients", static_cast<double>(clients));
  report.SetLayer("host.router_call_workers",
                  static_cast<double>(router_call_workers));
  report.SetLayer("host.router_fanout_workers",
                  static_cast<double>(router_fanout_workers));
  report.SetLayer("host.shard_service_workers",
                  static_cast<double>(shard_service_workers));
  report.SetLayer("host.epochs", kEpochs);
  report.SetLayer("host.world_scale", kWorldScale);
  report.SetLayer("host.march_native", E2E_MARCH_NATIVE ? 1.0 : 0.0);
  std::fprintf(stderr,
               "host: nproc=%u compiler=%s build=%s march_native=%d "
               "clients=%zu router_pools=%zu/%zu shard_workers=%zu "
               "scale=%.2f epochs=%d\n",
               std::thread::hardware_concurrency(), E2E_CXX_COMPILER,
               E2E_BUILD_TYPE, E2E_MARCH_NATIVE ? 1 : 0, clients,
               router_call_workers, router_fanout_workers,
               shard_service_workers, kWorldScale, kEpochs);
}

}  // namespace ccdb::e2e
