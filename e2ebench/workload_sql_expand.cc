// sql_expand: one SQL session, a single client in a closed loop over the
// 10,562-row `movies` table. A fixed share of statements names a perceptual
// attribute the table does not have yet, which triggers query-driven schema
// expansion (gold sample -> crowd::RunCrowdTask -> SVM train -> fill the
// column); the rest filter or aggregate over materialized columns. Once
// every genre's attribute is materialized, the table, resolver and session
// are recycled outside the timed statements and the phase clock, so the
// table never grows without bound.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_support.h"
#include "common/rng.h"
#include "core/resolver.h"
#include "db/database.h"

namespace ccdb::e2e {
namespace {

/// Statements come in shuffled blocks of kBlock with exactly kBlockExpands
/// naming a new attribute (30%), so every run sees the same mix.
constexpr std::size_t kBlock = 10;
constexpr std::size_t kBlockExpands = 3;
constexpr double kGMeanFloor = 0.5;

/// One database session: a fresh table, resolver and database with one
/// attribute per genre. Every attribute is registered up front, as a
/// deployment would; the resolver seed varies per session (see
/// ResolverGoldItems). The database points at `timed`, so a session never
/// moves.
struct Session {
  Session(const data::SyntheticWorld& world, const core::PerceptualSpace& space,
          std::uint64_t seed)
      : resolver_seed(seed),
        hit_config(CrowdConfig(seed)),
        resolver(&space, CrowdPool(), hit_config, seed),
        timed(&resolver) {
    const Status added = database.AddTable(MoviesTable(world));
    CCDB_CHECK_MSG(added.ok(), added.ToString());
    for (std::size_t genre = 0; genre < world.num_genres(); ++genre) {
      resolver.RegisterAttribute(
          AttributeName(world, genre),
          GenreAttributeSpec(world, genre, kGoldSampleSize));
    }
    database.SetResolver(&timed);
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  std::uint64_t resolver_seed;
  crowd::HitRunConfig hit_config;
  db::Database database;
  core::PerceptualExpansionResolver resolver;
  TimedResolver timed;
  std::vector<std::size_t> materialized;  // genres, in expansion order
  std::map<std::size_t, std::int64_t> trues;  // genre -> count of true
  std::map<std::size_t, std::vector<bool>> columns;
  double spent_dollars = 0.0;
};

struct SessionTotals {
  std::size_t attributes = 0;
  double dollars = 0.0;
  double minutes = 0.0;
  double gmean_sum = 0.0;
};

class SqlWorkload {
 public:
  SqlWorkload(const Args& args, const data::SyntheticWorld& world,
              const core::PerceptualSpace& space, Report& report)
      : args_(args), world_(world), space_(space), report_(report),
        rng_(args.seed ^ 0x5E551011ull) {
    NewSession();
  }

  PhaseResult Phase(double seconds) {
    PhaseClock clock;
    PhaseResult result;
    while (clock.wall_s() < seconds) {
      const bool expand = NextIsExpand() || session_->materialized.empty();
      if (expand && session_->materialized.size() == world_.num_genres()) {
        PhaseClock::Paused paused(clock);
        NewSession();
      }
      ++result.attempted;
      const bool ok = expand ? Expand(result, clock) : Read(result);
      if (!ok) ++result.failed;
    }
    result.wall_s = clock.wall_s();
    result.cpu_s = clock.cpu_s();
    return result;
  }

  void Finish() {
    CloseSession();
    if (totals_.attributes == 0) return;
    const double n = static_cast<double>(totals_.attributes);
    report_.SetE2e("gmean", totals_.gmean_sum / n);
    report_.SetE2e("crowd_dollars_per_attr", totals_.dollars / n);
    report_.SetE2e("crowd_minutes_per_attr", totals_.minutes / n);
    report_.Check(totals_.gmean_sum / n > kGMeanFloor,
                  "sql_expand: mean gmean above floor");
  }

  /// The first session's expansions, decomposed after the timed phase:
  /// exact-repeat counts plus pipeline == decomposition.
  std::map<std::string, double> ProbeCounts() {
    DecomposedExpansion sum;
    double gmean = 0.0;
    for (const auto& [genre, column] : first_columns_) {
      const DecomposedExpansion d = Decompose(first_seed_, genre);
      report_.Check(d.values == column,
                    "sql_expand: decomposed expansion equals the column");
      sum.support_vectors += d.support_vectors;
      sum.judgments += d.judgments;
      sum.dollars += d.dollars;
      gmean += GenreGMean(world_, genre, column);
    }
    const double n = static_cast<double>(first_columns_.size());
    return {{"svm.support_vectors", static_cast<double>(sum.support_vectors)},
            {"crowd.judgments", static_cast<double>(sum.judgments)},
            {"crowd_dollars_per_attr", sum.dollars / n},
            {"gmean", gmean / n}};
  }

  const DecompositionStats& decomposition() const { return decomposition_; }

 private:
  bool NextIsExpand() {
    if (block_.empty()) {
      block_.assign(kBlock, 0);
      std::fill(block_.begin(), block_.begin() + kBlockExpands, 1);
      rng_.Shuffle(block_);
    }
    const bool expand = block_.back() != 0;
    block_.pop_back();
    return expand;
  }

  void NewSession() {
    CloseSession();
    const std::uint64_t seed = args_.seed * 1000003ull + sessions_++;
    session_ = std::make_unique<Session>(world_, space_, seed);
  }

  /// Audit check and totals of the closing session.
  void CloseSession() {
    if (!session_) return;
    double audit = 0.0;
    for (const auto& record : session_->resolver.audit_log()) {
      audit += record.crowd_dollars;
    }
    report_.Check(audit == session_->spent_dollars,
                  "sql_expand: resolver audit dollars sum to the spend");
    if (sessions_ == 1) {
      first_seed_ = session_->resolver_seed;
      first_columns_ = session_->columns;
    }
    session_.reset();
  }

  DecomposedExpansion Decompose(std::uint64_t seed, std::size_t genre) const {
    const std::vector<std::uint32_t> gold =
        ResolverGoldItems(seed, world_.num_genres(), world_.num_items(),
                          kGoldSampleSize);
    std::vector<bool> truth;
    for (std::uint32_t item : gold) {
      truth.push_back(world_.GenreLabel(genre, item));
    }
    return DecomposeExpansion(space_, gold, truth, CrowdPool(),
                              CrowdConfig(seed), core::ExtractorOptions{});
  }

  StatusOr<db::Table> Execute(const std::string& sql) {
    ScopedSpan span("db", "Execute");
    return session_->database.Execute(sql);
  }

  bool Expand(PhaseResult& result, PhaseClock& clock) {
    Session& s = *session_;
    std::vector<std::size_t> pending;
    for (std::size_t genre = 0; genre < world_.num_genres(); ++genre) {
      if (!s.trues.count(genre)) pending.push_back(genre);
    }
    const std::size_t genre = pending[rng_.UniformInt(pending.size())];
    const std::string name = AttributeName(world_, genre);
    const std::string sql =
        "SELECT COUNT(*) FROM movies WHERE " + name + " = true";
    const double start = NowSeconds();
    StatusOr<db::Table> answer = [&] {
      ScopedSpan op("workload", "sql_expand");
      return Execute(sql);
    }();
    const double ms = (NowSeconds() - start) * 1e3;
    result.op.Add(ms);
    result.expand.Add(ms);
    if (!answer.ok()) return false;

    const std::vector<bool> column =
        ReadBoolColumn(*s.database.FindTable("movies"), name);
    std::int64_t trues = 0;
    for (bool value : column) trues += value ? 1 : 0;
    s.materialized.push_back(genre);
    s.trues[genre] = trues;
    s.columns[genre] = column;
    const core::SchemaExpansionResult& spend = s.resolver.last_result();
    s.spent_dollars += spend.crowd_dollars;
    ++totals_.attributes;
    totals_.dollars += spend.crowd_dollars;
    totals_.minutes += spend.crowd_minutes;
    totals_.gmean_sum += GenreGMean(world_, genre, column);
    if (Tracer::Get().enabled()) {
      PhaseClock::Paused paused(clock);
      const DecomposedExpansion d = Decompose(s.resolver_seed, genre);
      report_.Check(d.values == column,
                    "sql_expand: decomposed expansion equals the column");
      decomposition_.Add(d, kGoldSampleSize);
    }
    return answer.value().num_rows() == 1 &&
           std::get<std::int64_t>(answer.value().Get(0, 0)) == trues;
  }

  bool Read(PhaseResult& result) {
    Session& s = *session_;
    const std::vector<std::size_t>& done = s.materialized;
    const std::size_t a = done[rng_.UniformInt(done.size())];
    const std::size_t b = done[rng_.UniformInt(done.size())];
    const std::string name_a = AttributeName(world_, a);
    const std::string name_b = AttributeName(world_, b);
    const int shape = static_cast<int>(rng_.UniformInt(3));
    std::string sql;
    if (shape == 0) {
      sql = "SELECT COUNT(*) FROM movies WHERE " + name_a + " = true";
    } else if (shape == 1) {
      sql = "SELECT cluster, COUNT(*) FROM movies WHERE " + name_a +
            " = true GROUP BY cluster";
    } else {
      sql = "SELECT name FROM movies WHERE " + name_a + " = true AND " +
            name_b + " = false LIMIT 10";
    }
    const double start = NowSeconds();
    StatusOr<db::Table> answer = [&] {
      ScopedSpan op("workload", "sql_read");
      return Execute(sql);
    }();
    const double ms = (NowSeconds() - start) * 1e3;
    result.op.Add(ms);
    result.read.Add(ms);
    if (!answer.ok()) return false;

    // Outputs checked against the materialized columns.
    const db::Table& table = answer.value();
    if (shape == 0) {
      return table.num_rows() == 1 &&
             std::get<std::int64_t>(table.Get(0, 0)) == s.trues[a];
    }
    if (shape == 1) {
      std::int64_t total = 0;
      for (std::size_t row = 0; row < table.num_rows(); ++row) {
        total += std::get<std::int64_t>(table.Get(row, 1));
      }
      return total == s.trues[a];
    }
    std::size_t matching = 0;
    const std::vector<bool>& col_a = s.columns[a];
    const std::vector<bool>& col_b = s.columns[b];
    for (std::size_t i = 0; i < col_a.size(); ++i) {
      if (col_a[i] && !col_b[i]) ++matching;
    }
    return table.num_rows() == std::min<std::size_t>(10, matching);
  }

  const Args& args_;
  const data::SyntheticWorld& world_;
  const core::PerceptualSpace& space_;
  Report& report_;
  Rng rng_;
  std::vector<std::uint8_t> block_;  // 1 = expand, drawn from the back
  std::unique_ptr<Session> session_;
  std::uint64_t sessions_ = 0;
  SessionTotals totals_;
  DecompositionStats decomposition_;
  std::uint64_t first_seed_ = 0;
  std::map<std::size_t, std::vector<bool>> first_columns_;
};

}  // namespace

void RunSqlExpand(const Args& args, Report& report) {
  PublishHost(report, 1, 0, 0, 0);
  WorldInputs inputs = MakeWorld(args, report);
  report.SetE2e("setup_s", inputs.setup_s);

  // Cold start of the serving process: ratings in hand -> space built ->
  // first session ready.
  const double cold_start = NowSeconds();
  BuiltSpace built = BuildSpace(*inputs.ratings);
  std::optional<SqlWorkload> workload;
  workload.emplace(args, *inputs.world, built.space, report);
  report.SetE2e("cold_run_s", NowSeconds() - cold_start);
  PublishBuild(report, *inputs.ratings, built.wall_s, built.cpu_s);

  RunPhases(args, report,
            [&](double seconds) { return workload->Phase(seconds); });
  workload->Finish();

  if (args.trace) {
    workload->decomposition().Publish(report);
    const std::vector<SpanRecord> spans = Tracer::Get().Snapshot();
    const Samples execute = SpanDurations(spans, "db", "Execute");
    report.SetLayer("db.execute_ms", execute.Quantile(0.5));
    report.SetLayer("db.self_ms",
                    SpanSelfTimes(spans, "db", "Execute").Quantile(0.5));
    report.SetLayer("db.statements", static_cast<double>(execute.size()));
    const Samples resolve = SpanDurations(spans, "core.resolver", "Resolve");
    report.SetLayer("core.resolver.resolve_ms", resolve.Quantile(0.5));
    report.SetLayer("core.resolver.resolves",
                    static_cast<double>(resolve.size()));
  }
  std::map<std::string, double> counts = workload->ProbeCounts();
  counts["factorization.updates"] = report.Layer("factorization.updates");
  CheckRepeatCounts(args, counts, report);
}

}  // namespace ccdb::e2e
