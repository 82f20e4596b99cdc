// serve_mixed: a closed loop of kClients clients in one process, calling
// core::ShardedExpansionService -> net::LocalTransport -> 4
// core::ExpansionShardServer replicas whose result journals use the
// default every-record sync. Operations are a fixed mix of scatter-gather
// Predict (gold samples shared across requests, random item subsets),
// scatter-gather Knn (k = 10) and fingerprint-routed Expand (mostly new
// jobs; a fixed share repeats an earlier job and must be answered from the
// shard's idempotency cache for $0).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/expansion.h"
#include "core/expansion_service.h"
#include "core/shard_server.h"
#include "core/sharded_service.h"
#include "net/transport.h"

namespace ccdb::e2e {
namespace {

constexpr std::uint32_t kShards = 4;
constexpr std::size_t kMaxClients = 4;
// Each client draws its operations from shuffled blocks of 20 with a fixed
// mix: 7 Predict, 7 Knn, 5 new Expand and 1 repeated Expand (35% / 35% /
// 30%, a sixth of the Expands repeats), so every run sees the same mix.
enum class OpKind : std::uint8_t { kPredict, kKnn, kNewExpand, kRepeat };
constexpr std::pair<OpKind, std::size_t> kBlock[] = {
    {OpKind::kPredict, 7},
    {OpKind::kKnn, 7},
    {OpKind::kNewExpand, 5},
    {OpKind::kRepeat, 1}};
constexpr std::uint32_t kKnnK = 10;
constexpr std::size_t kPredictGoldSets = 6;  // one per genre
constexpr std::size_t kPredictGoldItems = 60;
constexpr std::size_t kPredictItems = 256;
// Per client and phase: requests kept for the post-run reference checks.
constexpr std::size_t kVerifyPredicts = 8;
constexpr std::size_t kVerifyKnns = 16;
constexpr std::size_t kDecomposeJobs = 4;
constexpr double kGMeanFloor = 0.5;

struct FinishedJob {
  std::uint64_t id = 0;
  std::vector<bool> values;
  double dollars = 0.0;
};

struct ClientLog {
  PhaseResult result;
  std::vector<FinishedJob> jobs;  // new jobs, in completion order
  std::vector<std::pair<core::PredictRequest, std::vector<bool>>> predicts;
  std::vector<std::pair<std::uint32_t, std::vector<core::KnnNeighbor>>> knns;
  double gmean_sum = 0.0;
  double minutes_sum = 0.0;
  double wasted_dollars = 0.0;
  std::size_t repeats_ok = 0;
};

class ServeWorkload {
 public:
  ServeWorkload(const Args& args, const data::SyntheticWorld& world,
                const core::PerceptualSpace& space, Report& report)
      : args_(args),
        world_(world),
        space_(space),
        report_(report),
        clients_(std::min<std::size_t>(
            kMaxClients,
            std::max(1u, std::thread::hardware_concurrency()))),
        transport_(local_, &directory_),
        scratch_(ScratchDir(args)) {
    for (std::uint32_t s = 0; s < kShards; ++s) {
      core::ShardServerOptions options;
      options.journal_path =
          scratch_ + "/shard" + std::to_string(s) + ".journal";
      servers_.push_back(std::make_unique<core::ExpansionShardServer>(
          s + 1, s, kShards, space_, CrowdPool(), transport_, options));
      const Status started = servers_.back()->Start();
      CCDB_CHECK_MSG(started.ok(), started.ToString());
    }
    const core::ShardedExpansionOptions options = RouterOptions();
    call_workers_ = options.call_workers;
    fanout_workers_ = options.fanout_workers;
    router_ = MakeRouter();
    Rng rng(args.seed ^ 0x601DULL);
    for (std::size_t g = 0; g < kPredictGoldSets; ++g) {
      core::PredictRequest gold;
      bool positive = false, negative = false;
      while (!positive || !negative) {
        gold = core::PredictRequest{};
        positive = negative = false;
        for (std::size_t index : rng.SampleWithoutReplacement(
                 world_.num_items(), kPredictGoldItems)) {
          const auto item = static_cast<std::uint32_t>(index);
          const bool label = world_.GenreLabel(g, item);
          gold.gold_items.push_back(item);
          gold.gold_labels.push_back(label);
          (label ? positive : negative) = true;
        }
      }
      gold_sets_.push_back(std::move(gold));
    }
  }

  ~ServeWorkload() {
    router_.reset();
    for (auto& server : servers_) server->Stop();
    servers_.clear();
    std::error_code ec;
    std::filesystem::remove_all(scratch_, ec);
  }

  std::size_t clients() const { return clients_; }
  std::size_t call_workers() const { return call_workers_; }
  std::size_t fanout_workers() const { return fanout_workers_; }

  /// One closed-loop phase. A traced phase then decomposes some of its
  /// own Expand jobs while tracing is still on, outside the phase clock.
  PhaseResult Phase(double seconds) {
    const std::size_t phase = phases_++;
    PhaseClock clock;
    const double start = NowSeconds();
    std::vector<ClientLog> logs(clients_);
    {
      ThreadPool pool(clients_);
      for (std::size_t c = 0; c < clients_; ++c) {
        pool.Submit([this, c, phase, start, seconds, &logs] {
          RunClient(c, phase, start + seconds, logs[c]);
        });
      }
      pool.Wait();
    }
    PhaseResult result;
    result.wall_s = clock.wall_s();
    result.cpu_s = clock.cpu_s();
    for (ClientLog& log : logs) {
      result.op.Append(log.result.op);
      result.expand.Append(log.result.expand);
      result.predict.Append(log.result.predict);
      result.knn.Append(log.result.knn);
      result.attempted += log.result.attempted;
      result.failed += log.result.failed;
      if (Tracer::Get().enabled()) {
        for (std::size_t j = 0;
             j < std::min(kDecomposeJobs, log.jobs.size()); ++j) {
          decomposition_.Add(DecomposeJob(log.jobs[j]), kGoldSampleSize);
        }
      }
      all_logs_.push_back(std::move(log));
    }
    return result;
  }

  /// Drains the router, runs every reference check and publishes the
  /// end-to-end and per-layer results.
  std::map<std::string, double> Finish(bool traced) {
    const core::ShardedServiceStats router = router_->stats();
    router_.reset();  // drains in-flight hedges before shard stats are read
    report_.Check(router.requests == router.completed + router.partial +
                                         router.failed + router.shed_expired,
                  "serve_mixed: requests == completed + partial + failed + "
                  "shed_expired");
    double shard_requests_max = 0.0, shard_requests_sum = 0.0;
    core::ShardServerStats shards;
    core::ServiceStats services;
    for (const auto& server : servers_) {
      const core::ShardServerStats s = server->stats();
      const core::ServiceStats v = server->service_stats();
      report_.Check(v.submitted == v.admitted + v.deduped + v.shed +
                                       v.breaker_rejected,
                    "serve_mixed: submitted == admitted + deduped + shed + "
                    "breaker_rejected");
      report_.Check(v.admitted == v.completed + v.failed + v.cancelled +
                                      v.deadline_exceeded,
                    "serve_mixed: admitted == terminal outcomes");
      shard_requests_max =
          std::max(shard_requests_max, static_cast<double>(s.requests));
      shard_requests_sum += static_cast<double>(s.requests);
      shards.expands += s.expands;
      shards.expand_cache_hits += s.expand_cache_hits;
      services.submitted += v.submitted;
      services.deduped += v.deduped;
      services.shed += v.shed;
      services.expansions_run += v.expansions_run;
      services.crowd_dollars_spent += v.crowd_dollars_spent;
    }

    // Dollars per attribute count everything the shards spent, paid re-runs
    // included.
    double job_dollars = 0.0, gmean_sum = 0.0, minutes_sum = 0.0;
    double wasted = 0.0;
    std::size_t jobs = 0, repeats_ok = 0;
    for (const ClientLog& log : all_logs_) {
      for (const FinishedJob& job : log.jobs) job_dollars += job.dollars;
      jobs += log.jobs.size();
      gmean_sum += log.gmean_sum;
      minutes_sum += log.minutes_sum;
      wasted += log.wasted_dollars;
      repeats_ok += log.repeats_ok;
    }
    report_.Check(jobs > 0, "serve_mixed: new Expand jobs completed");
    report_.Check(repeats_ok > 0, "serve_mixed: repeated Expands verified");
    // Pipelines beyond one per distinct job are paid re-runs: a hedged
    // duplicate that reaches the owner after the first flight finished but
    // before its result entered the idempotency cache runs the job again.
    // Measured as waste, not failed: every answer is still correct.
    report_.SetRatio("core.service.useful_pipeline_frac",
                     "core.service.distinct_jobs", static_cast<double>(jobs),
                     "core.service.expansions_run",
                     static_cast<double>(services.expansions_run));
    CheckRepeatsAddNothing();
    const double n = static_cast<double>(std::max<std::size_t>(1, jobs));
    report_.SetE2e("gmean", gmean_sum / n);
    report_.SetE2e("crowd_dollars_per_attr",
                   services.crowd_dollars_spent / n);
    report_.SetE2e("crowd_minutes_per_attr", minutes_sum / n);
    report_.Check(gmean_sum / n > kGMeanFloor,
                  "serve_mixed: mean gmean above floor");
    std::fprintf(stderr,
                 "serve_mixed: %zu new jobs, %zu verified repeats, %llu "
                 "pipelines run, $%.2f spent for $%.2f of results\n",
                 jobs, repeats_ok,
                 static_cast<unsigned long long>(services.expansions_run),
                 services.crowd_dollars_spent, job_dollars);

    VerifyPredicts();
    VerifyKnns();
    std::map<std::string, double> counts = ProbeCounts();
    if (traced) decomposition_.Publish(report_);

    report_.SetRatio("core.router.attempts_per_op", "core.router.attempts",
                     static_cast<double>(router.attempts),
                     "core.router.requests",
                     static_cast<double>(router.requests));
    report_.SetRatio("core.router.hedge_rate", "core.router.hedges_fired",
                     static_cast<double>(router.hedges_fired),
                     "core.router.attempts",
                     static_cast<double>(router.attempts));
    report_.SetRatio("core.router.hedge_win_frac", "core.router.hedge_wins",
                     static_cast<double>(router.hedge_wins),
                     "core.router.hedges_fired",
                     static_cast<double>(router.hedges_fired));
    report_.SetRatio("core.router.retry_rate", "core.router.retries",
                     static_cast<double>(router.retries),
                     "core.router.attempts",
                     static_cast<double>(router.attempts));
    report_.SetRatio("core.router.partial_frac", "core.router.partial",
                     static_cast<double>(router.partial),
                     "core.router.requests",
                     static_cast<double>(router.requests));
    report_.SetRatio("core.shard.load_imbalance", "core.shard.max_requests",
                     shard_requests_max, "core.shard.mean_requests",
                     shard_requests_sum / kShards);
    report_.SetRatio("core.shard.expand_cache_hit_frac",
                     "core.shard.expand_cache_hits",
                     static_cast<double>(shards.expand_cache_hits),
                     "core.shard.expands",
                     static_cast<double>(shards.expands));
    report_.SetRatio("core.service.dedup_frac", "core.service.deduped",
                     static_cast<double>(services.deduped),
                     "core.service.submitted",
                     static_cast<double>(services.submitted));
    report_.SetLayer("core.service.shed", static_cast<double>(services.shed));
    report_.SetLayer("crowd.wasted_dollars", wasted);
    const std::map<std::string, Samples> calls = transport_.CallSamples();
    for (const char* method : {"predict", "knn", "expand"}) {
      auto it = calls.find(method);
      report_.SetLatency(std::string("net.call_") + method,
                         it == calls.end() ? Samples{} : it->second);
    }
    return counts;
  }

 private:
  core::ShardedExpansionOptions RouterOptions() const {
    core::ShardedExpansionOptions options;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      options.shard_nodes.push_back(s + 1);
    }
    options.seed = args_.seed;
    return options;
  }

  std::unique_ptr<core::ShardedExpansionService> MakeRouter() {
    return std::make_unique<core::ShardedExpansionService>(transport_,
                                                           RouterOptions());
  }

  /// Crowd dollars spent and pipelines run across every shard.
  std::pair<double, std::uint64_t> ShardSpend() const {
    std::pair<double, std::uint64_t> total{0.0, 0};
    for (const auto& server : servers_) {
      const core::ServiceStats stats = server->service_stats();
      total.first += stats.crowd_dollars_spent;
      total.second += stats.expansions_run;
    }
    return total;
  }

  /// With the closed loop stopped and the router drained, re-issues
  /// finished jobs one at a time: each must return its first result and
  /// leave the shards' spend and pipeline count unchanged.
  void CheckRepeatsAddNothing() {
    router_ = MakeRouter();
    const std::pair<double, std::uint64_t> before = ShardSpend();
    std::size_t checked = 0, same = 0;
    for (const ClientLog& log : all_logs_) {
      for (std::size_t j = 0; j < std::min<std::size_t>(2, log.jobs.size());
           ++j) {
        const FinishedJob& first = log.jobs[j];
        const core::ShardedExpandResult answer =
            router_->Expand(MakeJob(first.id));
        ++checked;
        if (answer.status.ok() && answer.result.values == first.values &&
            answer.result.crowd_dollars == first.dollars) {
          ++same;
        }
      }
    }
    router_.reset();  // drain the probe's own hedges
    const std::pair<double, std::uint64_t> after = ShardSpend();
    report_.Check(checked > 0 && same == checked,
                  "serve_mixed: repeated Expands return the first result");
    report_.Check(after == before, "serve_mixed: repeated Expands add $0");
  }

  core::ExpansionJob MakeJob(std::uint64_t id) const {
    core::ExpansionJob job;
    job.table = "movies";
    job.request.attribute_name = "attr_" + std::to_string(id);
    const std::size_t genre = id % world_.num_genres();
    Rng rng(args_.seed * 0x9E3779B97F4A7C15ull + id);
    for (std::size_t index :
         rng.SampleWithoutReplacement(world_.num_items(), kGoldSampleSize)) {
      const auto item = static_cast<std::uint32_t>(index);
      job.request.gold_sample_items.push_back(item);
      job.sample_truth.push_back(world_.GenreLabel(genre, item));
    }
    job.hit_config = CrowdConfig(args_.seed * 7919 + id);
    return job;
  }

  void RunClient(std::size_t client, std::size_t phase, double deadline,
                 ClientLog& log) {
    Rng rng(args_.seed * 1315423911ull + client * 31 + phase * 7);
    std::uint64_t next_job = 0;
    std::vector<OpKind> block;
    while (NowSeconds() < deadline) {
      if (block.empty()) {
        for (const auto& [kind, count] : kBlock) {
          block.insert(block.end(), count, kind);
        }
        rng.Shuffle(block);
      }
      const OpKind kind = block.back();
      block.pop_back();
      ++log.result.attempted;
      bool ok = false;
      if (kind == OpKind::kPredict) {
        ok = Predict(rng, log);
      } else if (kind == OpKind::kKnn) {
        ok = Knn(rng, log);
      } else if (kind == OpKind::kRepeat && !log.jobs.empty()) {
        ok = RepeatExpand(rng, log);
      } else {
        // Job ids are unique per (phase, client, n): a new job is never a
        // repeat of another client's.
        const std::uint64_t id =
            ((phase * kMaxClients + client) << 32) | next_job++;
        ok = NewExpand(id, log);
      }
      if (!ok) ++log.result.failed;
    }
  }

  bool Predict(Rng& rng, ClientLog& log) {
    core::PredictRequest request =
        gold_sets_[rng.UniformInt(gold_sets_.size())];
    for (std::size_t index :
         rng.SampleWithoutReplacement(world_.num_items(), kPredictItems)) {
      request.items.push_back(static_cast<std::uint32_t>(index));
    }
    const bool traced = Tracer::Get().enabled();
    const double start = NowSeconds();
    core::ShardedPredictResult answer;
    {
      ScopedSpan op("core.router", "Predict");
      std::vector<std::uint64_t> keys;
      if (traced) {
        // The first requested item each shard owns identifies its
        // sub-request on the wire.
        std::vector<bool> seen(kShards, false);
        for (std::uint32_t item : request.items) {
          const std::uint32_t shard = router_->ring().OwnerOfItem(item);
          if (seen[shard]) continue;
          seen[shard] = true;
          keys.push_back(PredictKey(request.gold_items, item));
          directory_.Register(keys.back(), {op.id(), op.request()});
        }
      }
      answer = router_->Predict(request);
      for (std::uint64_t key : keys) directory_.Unregister(key);
    }
    const double ms = (NowSeconds() - start) * 1e3;
    log.result.op.Add(ms);
    log.result.predict.Add(ms);
    if (!answer.status.ok() || answer.coverage != 1.0) return false;
    std::vector<bool> values;
    for (const std::optional<bool>& value : answer.values) {
      if (!value.has_value()) return false;
      values.push_back(*value);
    }
    if (log.predicts.size() < kVerifyPredicts) {
      log.predicts.emplace_back(std::move(request), std::move(values));
    }
    return true;
  }

  bool Knn(Rng& rng, ClientLog& log) {
    const auto item =
        static_cast<std::uint32_t>(rng.UniformInt(world_.num_items()));
    const bool traced = Tracer::Get().enabled();
    const double start = NowSeconds();
    core::ShardedKnnResult answer;
    {
      ScopedSpan op("core.router", "Knn");
      const std::uint64_t key = traced ? KnnKey(item, kKnnK) : 0;
      if (traced) directory_.Register(key, {op.id(), op.request()});
      answer = router_->Knn(item, kKnnK);
      if (traced) directory_.Unregister(key);
    }
    const double ms = (NowSeconds() - start) * 1e3;
    log.result.op.Add(ms);
    log.result.knn.Add(ms);
    if (!answer.status.ok() || answer.coverage != 1.0 ||
        answer.neighbors.size() != kKnnK) {
      return false;
    }
    if (log.knns.size() < kVerifyKnns) {
      log.knns.emplace_back(item, std::move(answer.neighbors));
    }
    return true;
  }

  core::ShardedExpandResult CallExpand(const core::ExpansionJob& job,
                                       const char* name) {
    const bool traced = Tracer::Get().enabled();
    ScopedSpan op("core.router", name);
    const std::uint64_t key = traced ? core::ExpansionJobFingerprint(job) : 0;
    if (traced) directory_.Register(key, {op.id(), op.request()});
    core::ShardedExpandResult answer = router_->Expand(job);
    if (traced) directory_.Unregister(key);
    return answer;
  }

  bool NewExpand(std::uint64_t id, ClientLog& log) {
    const core::ExpansionJob job = MakeJob(id);
    const double start = NowSeconds();
    const core::ShardedExpandResult answer = CallExpand(job, "Expand");
    const double ms = (NowSeconds() - start) * 1e3;
    log.result.op.Add(ms);
    log.result.expand.Add(ms);
    if (!answer.status.ok() || !answer.result.status.ok() ||
        answer.result.values.size() != world_.num_items()) {
      return false;
    }
    log.gmean_sum +=
        GenreGMean(world_, id % world_.num_genres(), answer.result.values);
    log.minutes_sum += answer.result.crowd_minutes;
    log.wasted_dollars += answer.result.dispatch.wasted_dollars;
    log.jobs.push_back(
        {id, answer.result.values, answer.result.crowd_dollars});
    return true;
  }

  bool RepeatExpand(Rng& rng, ClientLog& log) {
    const FinishedJob& first = log.jobs[rng.UniformInt(log.jobs.size())];
    const core::ExpansionJob job = MakeJob(first.id);
    const double start = NowSeconds();
    const core::ShardedExpandResult answer = CallExpand(job, "ExpandRepeat");
    log.result.op.Add((NowSeconds() - start) * 1e3);
    // A repeat returns the first result, spent money included.
    const bool ok = answer.status.ok() && answer.result.status.ok() &&
                    answer.result.values == first.values &&
                    answer.result.crowd_dollars == first.dollars;
    if (ok) ++log.repeats_ok;
    return ok;
  }

  /// Sharded Predict must be bit-identical to one extractor trained on the
  /// same gold sample.
  void VerifyPredicts() {
    std::size_t checked = 0, equal = 0;
    for (const ClientLog& log : all_logs_) {
      for (const auto& [request, values] : log.predicts) {
        core::BinaryAttributeExtractor extractor(request.extractor);
        const bool trained = extractor.Train(space_, request.gold_items,
                                             request.gold_labels);
        const std::optional<std::vector<bool>> reference =
            extractor.ExtractItems(space_, request.items);
        ++checked;
        if (trained && reference.has_value() && *reference == values) ++equal;
      }
    }
    report_.Check(checked > 0 && equal == checked,
                  "serve_mixed: sharded Predict equals a single-node "
                  "extractor (" + std::to_string(equal) + "/" +
                      std::to_string(checked) + ")");
  }

  /// Sharded Knn must equal a brute-force top-k in (distance, index) order.
  void VerifyKnns() {
    std::size_t checked = 0, equal = 0;
    for (const ClientLog& log : all_logs_) {
      for (const auto& [item, neighbors] : log.knns) {
        std::vector<core::KnnNeighbor> all;
        for (std::uint32_t other = 0;
             other < static_cast<std::uint32_t>(space_.num_items());
             ++other) {
          if (other != item) {
            all.push_back({other, space_.Distance(item, other)});
          }
        }
        std::sort(all.begin(), all.end(),
                  [](const core::KnnNeighbor& a, const core::KnnNeighbor& b) {
                    return a.distance != b.distance ? a.distance < b.distance
                                                    : a.index < b.index;
                  });
        all.resize(kKnnK);
        bool same = neighbors.size() == all.size();
        for (std::size_t i = 0; same && i < all.size(); ++i) {
          same = neighbors[i].index == all[i].index &&
                 neighbors[i].distance == all[i].distance;
        }
        ++checked;
        if (same) ++equal;
      }
    }
    report_.Check(checked > 0 && equal == checked,
                  "serve_mixed: sharded Knn equals brute-force top-k (" +
                      std::to_string(equal) + "/" + std::to_string(checked) +
                      ")");
  }

  /// Decomposes a finished Expand job: RunCrowdTask -> MajorityVote ->
  /// Train -> ExtractAll, plus ExpandSchemaResilient itself, both checked
  /// against the column the sharded pipeline returned.
  DecomposedExpansion DecomposeJob(const FinishedJob& finished) {
    const core::ExpansionJob job = MakeJob(finished.id);
    DecomposedExpansion d = DecomposeExpansion(
        space_, job.request.gold_sample_items, job.sample_truth, CrowdPool(),
        job.hit_config, job.request.extractor);
    const core::SchemaExpansionResult direct = core::ExpandSchemaResilient(
        space_, job.request, CrowdPool(), job.hit_config, job.sample_truth,
        job.expansion);
    report_.Check(d.values == finished.values &&
                      direct.values == finished.values &&
                      direct.crowd_dollars == finished.dollars,
                  "serve_mixed: decomposed Expand equals the sharded result");
    return d;
  }

  /// Exact-repeat counts of a fixed probe: the first phase's client 0's
  /// first jobs, decomposed after the router drained.
  std::map<std::string, double> ProbeCounts() {
    const std::vector<FinishedJob>& jobs = all_logs_.front().jobs;
    const std::size_t probe_jobs = std::min(kDecomposeJobs, jobs.size());
    double svs = 0, judgments = 0, dollars = 0, gmean = 0;
    for (std::size_t j = 0; j < probe_jobs; ++j) {
      const DecomposedExpansion d = DecomposeJob(jobs[j]);
      svs += static_cast<double>(d.support_vectors);
      judgments += static_cast<double>(d.judgments);
      dollars += d.dollars;
      gmean += GenreGMean(world_, jobs[j].id % world_.num_genres(),
                          jobs[j].values);
    }
    const double n = static_cast<double>(std::max<std::size_t>(1, probe_jobs));
    return {{"svm.support_vectors", svs},
            {"crowd.judgments", judgments},
            {"crowd_dollars_per_attr", dollars / n},
            {"gmean", gmean / n}};
  }

  const Args& args_;
  const data::SyntheticWorld& world_;
  const core::PerceptualSpace& space_;
  Report& report_;
  const std::size_t clients_;
  std::size_t call_workers_ = 0;
  std::size_t fanout_workers_ = 0;
  net::LocalTransport local_;
  OpDirectory directory_;
  TimedTransport transport_;
  std::string scratch_;
  std::vector<std::unique_ptr<core::ExpansionShardServer>> servers_;
  std::unique_ptr<core::ShardedExpansionService> router_;
  std::vector<core::PredictRequest> gold_sets_;
  std::size_t phases_ = 0;
  DecompositionStats decomposition_;  // traced phase's decomposed jobs
  std::vector<ClientLog> all_logs_;  // phase-major: phase * clients + client
};

}  // namespace

void RunServeMixed(const Args& args, Report& report) {
  WorldInputs inputs = MakeWorld(args, report);
  report.SetE2e("setup_s", inputs.setup_s);

  // Cold start of the serving process: ratings in hand -> space built ->
  // shard servers started and the router ready.
  const double cold_start = NowSeconds();
  BuiltSpace built = BuildSpace(*inputs.ratings);
  std::optional<ServeWorkload> workload;
  workload.emplace(args, *inputs.world, built.space, report);
  report.SetE2e("cold_run_s", NowSeconds() - cold_start);
  PublishBuild(report, *inputs.ratings, built.wall_s, built.cpu_s);
  PublishHost(report, workload->clients(), workload->call_workers(),
              workload->fanout_workers(),
              core::ExpansionServiceOptions{}.workers);

  const auto [t0, t1] = RunPhases(
      args, report, [&](double seconds) { return workload->Phase(seconds); });
  std::map<std::string, double> counts = workload->Finish(args.trace);
  counts["factorization.updates"] = report.Layer("factorization.updates");

  if (args.trace) {
    const std::vector<SpanRecord> spans = Tracer::Get().Snapshot();
    Samples router_self;
    for (const char* name : {"Predict", "Knn", "Expand", "ExpandRepeat"}) {
      router_self.Append(SpanSelfTimes(spans, "core.router", name));
    }
    report.SetLayer("core.router.self_ms", router_self.Quantile(0.5));
    std::size_t calls = 0, ops = 0;
    for (const SpanRecord& span : spans) {
      if (span.start < t0 || span.end > t1) continue;
      if (std::string(span.layer) == "net") ++calls;
      if (std::string(span.layer) == "core.router") ++ops;
    }
    report.SetRatio("net.calls_per_op", "net.calls",
                    static_cast<double>(calls), "net.ops",
                    static_cast<double>(ops));
  }
  workload.reset();
  CheckRepeatCounts(args, counts, report);
}

}  // namespace ccdb::e2e
