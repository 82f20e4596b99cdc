// cold_build: one cold pipeline per operation. From ratings in hand:
// PerceptualSpace::Build, a Table-2 NearestNeighbors check over fixed
// anchors, a SQL expansion through Database::Execute of each genre's
// attribute (one statement each, so the g-mean averages over the genres
// instead of hanging on one gold sample), and the Sec. 4.4
// FlagQuestionableLabels check over a ground-truth column with a seeded
// share of its labels flipped. The space build dominates; the router is
// never touched.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench_support.h"
#include "common/rng.h"
#include "core/quality.h"
#include "core/resolver.h"
#include "db/database.h"
#include "eval/metrics.h"

namespace ccdb::e2e {
namespace {

constexpr std::size_t kAnchors = 32;
constexpr std::size_t kNeighbors = 10;
constexpr std::size_t kQualityGenre = 0;  // Comedy
/// Gold sample per attribute. Larger than the serving workloads' so that
/// six attributes per pipeline give a g-mean that measures the space more
/// than the luck of one draw.
constexpr std::size_t kColdGoldItems = 300;
constexpr double kFlipShare = 0.10;
// Output floors: a run below any of them is wrong, however fast.
constexpr double kGMeanFloor = 0.5;
constexpr double kSameClusterFloor = 0.5;
constexpr double kFlagRecallFloor = 0.6;

struct Inputs {
  const data::SyntheticWorld* world = nullptr;
  const RatingDataset* ratings = nullptr;
  std::vector<std::uint32_t> anchors;
  std::vector<bool> noisy_labels;
  std::vector<bool> flipped;
  std::uint64_t seed = 0;
};

/// Everything one cold pipeline produced, for the checks and the
/// exact-repeat counts (every pipeline of a run sees identical inputs).
struct PipelineOutput {
  double total_ms = 0.0;
  double build_s = 0.0;
  double build_cpu_s = 0.0;
  double knn_ms = 0.0;
  std::vector<double> expand_ms;  // one per genre
  double quality_ms = 0.0;
  bool ok = true;
  std::size_t same_cluster = 0;
  std::size_t flagged_flipped = 0;
  std::size_t num_flipped = 0;
  double gmean = 0.0;    // mean over the genres
  double dollars = 0.0;  // summed over the genres
  double minutes = 0.0;
  std::vector<std::vector<bool>> columns;
  std::vector<DecomposedExpansion> decomposed;
};

PipelineOutput RunPipeline(const Inputs& in, Report& report, bool decompose,
                           PhaseClock& clock) {
  const data::SyntheticWorld& world = *in.world;
  PipelineOutput out;
  std::optional<BuiltSpace> built;
  {
    ScopedSpan op("workload", "cold_pipeline");
    const double start = NowSeconds();
    built.emplace(BuildSpace(*in.ratings));
    const core::PerceptualSpace& space = built->space;
    out.build_s = built->wall_s;
    out.build_cpu_s = built->cpu_s;

    double t = NowSeconds();
    {
      ScopedSpan span("eval", "NearestNeighbors");
      for (std::uint32_t anchor : in.anchors) {
        for (const eval::Neighbor& neighbor :
             space.NearestNeighbors(anchor, kNeighbors)) {
          if (world.ClusterOf(static_cast<std::uint32_t>(neighbor.index)) ==
              world.ClusterOf(anchor)) {
            ++out.same_cluster;
          }
        }
      }
    }
    out.knn_ms = (NowSeconds() - t) * 1e3;

    // Query-driven schema expansion of every genre on a fresh database.
    db::Database database;
    const Status added = database.AddTable(MoviesTable(world));
    CCDB_CHECK_MSG(added.ok(), added.ToString());
    core::PerceptualExpansionResolver resolver(&space, CrowdPool(),
                                               CrowdConfig(in.seed), in.seed);
    TimedResolver timed(&resolver);
    database.SetResolver(&timed);
    for (std::size_t genre = 0; genre < world.num_genres(); ++genre) {
      // Registered as each is first queried, so every attribute draws its
      // own gold sample (see ResolverGoldItems).
      const std::string name = AttributeName(world, genre);
      resolver.RegisterAttribute(
          name, GenreAttributeSpec(world, genre, kColdGoldItems));
      t = NowSeconds();
      StatusOr<db::Table> counted = [&] {
        ScopedSpan span("db", "Execute");
        return database.Execute("SELECT COUNT(*) FROM movies WHERE " + name +
                                " = true");
      }();
      out.expand_ms.push_back((NowSeconds() - t) * 1e3);
      const std::vector<bool> column =
          counted.ok() ? ReadBoolColumn(*database.FindTable("movies"), name)
                       : std::vector<bool>{};
      const auto trues = static_cast<std::int64_t>(
          std::count(column.begin(), column.end(), true));
      out.ok = out.ok && counted.ok() && counted.value().num_rows() == 1 &&
               std::get<std::int64_t>(counted.value().Get(0, 0)) == trues;
      out.gmean += GenreGMean(world, genre, column) /
                   static_cast<double>(world.num_genres());
      out.dollars += resolver.last_result().crowd_dollars;
      out.minutes += resolver.last_result().crowd_minutes;
      out.columns.push_back(column);
    }
    double audit_dollars = 0.0;
    for (const auto& record : resolver.audit_log()) {
      audit_dollars += record.crowd_dollars;
    }
    report.Check(audit_dollars == out.dollars,
                 "cold_build: resolver audit dollars sum to the spend");

    t = NowSeconds();
    core::QualityCheckResult quality;
    {
      ScopedSpan span("core.quality", "FlagQuestionableLabels");
      quality = core::FlagQuestionableLabels(space, in.noisy_labels,
                                             core::QualityCheckOptions{});
    }
    out.quality_ms = (NowSeconds() - t) * 1e3;
    for (std::size_t i = 0; i < in.flipped.size(); ++i) {
      if (!in.flipped[i]) continue;
      ++out.num_flipped;
      if (quality.flagged[i]) ++out.flagged_flipped;
    }
    out.total_ms = (NowSeconds() - start) * 1e3;

    bool finite = true;
    for (std::size_t r = 0; r < space.num_items() && finite; ++r) {
      for (double x : space.CoordsOf(static_cast<std::uint32_t>(r))) {
        if (!std::isfinite(x)) finite = false;
      }
    }
    report.Check(finite, "cold_build: space coordinates are finite");
  }
  if (decompose) {
    // Outside the op span and the phase clock: the same stages through
    // their public functions, on the resolver's own gold samples.
    PhaseClock::Paused paused(clock);
    for (std::size_t genre = 0; genre < world.num_genres(); ++genre) {
      const std::vector<std::uint32_t> gold = ResolverGoldItems(
          in.seed, genre + 1, world.num_items(), kColdGoldItems);
      std::vector<bool> truth;
      for (std::uint32_t item : gold) {
        truth.push_back(world.GenreLabel(genre, item));
      }
      out.decomposed.push_back(DecomposeExpansion(
          built->space, gold, truth, CrowdPool(), CrowdConfig(in.seed),
          core::ExtractorOptions{}));
      report.Check(out.decomposed.back().values == out.columns[genre],
                   "cold_build: decomposed expansion equals the SQL column");
    }
  }
  return out;
}

}  // namespace

void RunColdBuild(const Args& args, Report& report) {
  PublishHost(report, 1, 0, 0, 0);
  WorldInputs world_inputs = MakeWorld(args, report);
  report.SetE2e("setup_s", world_inputs.setup_s);
  const data::SyntheticWorld& world = *world_inputs.world;

  Inputs in;
  in.world = &world;
  in.ratings = world_inputs.ratings.get();
  in.seed = args.seed;
  // Fixed anchors: the most-rated items (Table 2 shows popular movies).
  std::vector<std::uint32_t> by_popularity(world.num_items());
  std::iota(by_popularity.begin(), by_popularity.end(), 0u);
  std::stable_sort(by_popularity.begin(), by_popularity.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return in.ratings->ItemCount(a) >
                            in.ratings->ItemCount(b);
                   });
  in.anchors.assign(by_popularity.begin(), by_popularity.begin() + kAnchors);
  // Ground-truth column with a seeded share of its labels flipped.
  in.noisy_labels = world.GenreLabels(kQualityGenre);
  in.flipped.assign(world.num_items(), false);
  Rng rng(args.seed ^ 0xF11Bull);
  for (std::size_t index : rng.SampleWithoutReplacement(
           world.num_items(),
           static_cast<std::size_t>(kFlipShare *
                                    static_cast<double>(world.num_items())))) {
    in.noisy_labels[index] = !in.noisy_labels[index];
    in.flipped[index] = true;
  }

  std::vector<PipelineOutput> outputs;
  Samples cold_ms;
  DecompositionStats decomposition;
  RunPhases(args, report, [&](double seconds) {
    PhaseClock clock;
    PhaseResult result;
    const bool traced = Tracer::Get().enabled();
    // Closed loop of one client; at least one pipeline per phase.
    do {
      PipelineOutput out =
          RunPipeline(in, report, traced || outputs.empty(), clock);
      ++result.attempted;
      if (!out.ok) ++result.failed;
      result.op.Add(out.total_ms);
      for (double ms : out.expand_ms) result.expand.Add(ms);
      if (!traced) cold_ms.Add(out.total_ms);
      if (traced) {
        for (const DecomposedExpansion& d : out.decomposed) {
          decomposition.Add(d, kColdGoldItems);
        }
        report.SetLayer("eval.knn_check_ms", out.knn_ms);
        report.SetLayer("core.quality.check_ms", out.quality_ms);
      }
      outputs.push_back(std::move(out));
    } while (clock.wall_s() < seconds);
    result.wall_s = clock.wall_s();
    result.cpu_s = clock.cpu_s();
    return result;
  });

  // Every pipeline saw identical inputs, so every output must repeat.
  const PipelineOutput& first = outputs.front();
  for (const PipelineOutput& out : outputs) {
    report.Check(out.ok, "cold_build: COUNT(*) equals the column's trues");
    report.Check(out.columns == first.columns && out.gmean == first.gmean &&
                     out.same_cluster == first.same_cluster &&
                     out.flagged_flipped == first.flagged_flipped,
                 "cold_build: pipelines over identical inputs agree");
  }
  const double same_cluster_frac =
      static_cast<double>(first.same_cluster) /
      static_cast<double>(kAnchors * kNeighbors);
  const double recall = static_cast<double>(first.flagged_flipped) /
                        static_cast<double>(first.num_flipped);
  report.Check(first.gmean > kGMeanFloor, "cold_build: gmean above floor");
  report.Check(same_cluster_frac > kSameClusterFloor,
               "cold_build: same-cluster kNN fraction above floor");
  report.Check(recall > kFlagRecallFloor,
               "cold_build: flag recall on flipped labels above floor");

  report.SetE2e("cold_run_s", cold_ms.empty() ? first.total_ms / 1e3
                                              : cold_ms.Quantile(0.5) / 1e3);
  const auto genres = static_cast<double>(world.num_genres());
  report.SetE2e("gmean", first.gmean);
  report.SetE2e("crowd_dollars_per_attr", first.dollars / genres);
  report.SetE2e("crowd_minutes_per_attr", first.minutes / genres);
  PublishBuild(report, *in.ratings, outputs.back().build_s,
               outputs.back().build_cpu_s);
  report.SetRatio("eval.knn_same_cluster_frac", "eval.knn_same_cluster",
                  static_cast<double>(first.same_cluster),
                  "eval.knn_neighbors",
                  static_cast<double>(kAnchors * kNeighbors));
  report.SetRatio("core.quality.flag_recall", "core.quality.flagged_flipped",
                  static_cast<double>(first.flagged_flipped),
                  "core.quality.flipped",
                  static_cast<double>(first.num_flipped));
  if (args.trace) {
    decomposition.Publish(report);
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

  double support_vectors = 0.0, judgments = 0.0;
  for (const DecomposedExpansion& d : first.decomposed) {
    support_vectors += static_cast<double>(d.support_vectors);
    judgments += static_cast<double>(d.judgments);
  }
  std::map<std::string, double> counts = {
      {"factorization.updates", report.Layer("factorization.updates")},
      {"svm.support_vectors", support_vectors},
      {"crowd.judgments", judgments},
      {"crowd_dollars_per_attr", first.dollars / genres},
      {"gmean", first.gmean},
      {"eval.knn_same_cluster", static_cast<double>(first.same_cluster)},
      {"core.quality.flagged_flipped",
       static_cast<double>(first.flagged_flipped)},
  };
  CheckRepeatCounts(args, counts, report);
}

}  // namespace ccdb::e2e
