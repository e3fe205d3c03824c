// Sweep subsystem tests: spec expansion and seed derivation, wire/journal
// round-trips, worker-count invariance, crashed-worker recovery, and
// checkpoint/resume.
//
// The sharded tests re-exec this binary as the worker process (the same
// trick the bench harnesses use with --worker): main() below intercepts
// --sweep-test-worker MODE [ARG] before GoogleTest sees argv and enters
// SweepRunner::serve() on the protocol socket.
#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine/parallel_estimator.h"
#include "core/obs/metrics.h"
#include "core/sweep/checkpoint.h"
#include "core/sweep/sweep_report.h"
#include "core/sweep/sweep_runner.h"
#include "core/sweep/sweep_spec.h"
#include "core/sweep/wire.h"
#include "util/rng.h"

namespace qps::sweep {
namespace {

/// The grid the parent tests and the re-exec'ed workers must agree on.
SweepSpec make_grid_spec() {
  SweepSpec spec("sweep_test_grid", 77);
  spec.add_block("alpha", {3, 5}, {"R", "IR"});
  spec.add_block("beta", {10});
  spec.set_ps({0.25, 0.5});
  return spec;
}

// make_grid_spec()'s fingerprints under earlier result-stream versions:
// version 1 reduced with Welford, version 2 sampled colorings with the
// fixed-cost LSB-first sampler, version 3 sampled them trial-major (one
// mask row per trial), version 4 drew the randomized strategies' choices
// per trial, version 5 drew IR_Probe_HQS's child orders per trial at each
// gate's first visit.  Journals and workers of those versions must never
// be mixed into a current sweep.
constexpr std::uint64_t kStreamV1GridFingerprint = 0xdc106afb06f7fd11ULL;
constexpr std::uint64_t kStreamV2GridFingerprint = 0x7b6ac39c652377b1ULL;
constexpr std::uint64_t kStreamV3GridFingerprint = 0x1aaac265f67fc1d4ULL;
constexpr std::uint64_t kStreamV4GridFingerprint = 0x1952c526721c0647ULL;
constexpr std::uint64_t kStreamV5GridFingerprint = 0x2174183f433486caULL;

/// Deterministic pure function of the point: what every process computes.
RunningStats eval_point(const SweepPoint& point) {
  Rng rng = Rng::for_stream(point.seed, 999);
  RunningStats stats;
  for (int i = 0; i < 257; ++i)
    stats.add(rng.uniform01() * (1.0 + point.p) +
              static_cast<double>(point.size));
  return stats;
}

std::vector<std::string> self_worker_command(const std::string& mode) {
  return {"/proc/self/exe", "--sweep-test-worker", mode};
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "qps_sweep_" + std::to_string(::getpid()) +
         "_" + name;
}

void expect_same_results(const std::vector<PointResult>& a,
                         const std::vector<PointResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].point.id, b[i].point.id);
    EXPECT_EQ(a[i].stats.count(), b[i].stats.count()) << a[i].point.id;
    EXPECT_EQ(a[i].stats.mean(), b[i].stats.mean()) << a[i].point.id;
    EXPECT_EQ(a[i].stats.sum_squared_deviations(),
              b[i].stats.sum_squared_deviations())
        << a[i].point.id;
    EXPECT_EQ(a[i].stats.min(), b[i].stats.min()) << a[i].point.id;
    EXPECT_EQ(a[i].stats.max(), b[i].stats.max()) << a[i].point.id;
  }
}

TEST(SweepSpec, ExpandsBlocksTimesStrategiesTimesPs) {
  const auto points = make_grid_spec().expand();
  // alpha: 2 sizes x 2 strategies x 2 ps = 8; beta: 1 x 1 x 2 = 2.
  ASSERT_EQ(points.size(), 10u);
  EXPECT_EQ(make_grid_spec().point_count(), 10u);
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(points[i].index, i);
  EXPECT_EQ(points[0].id, "family=alpha/size=3/strategy=R/p=0.25");
  EXPECT_EQ(points[1].id, "family=alpha/size=3/strategy=R/p=0.5");
  EXPECT_EQ(points[8].id, "family=beta/size=10/p=0.25");
  EXPECT_TRUE(points[8].strategy.empty());
}

TEST(SweepSpec, IdsAreCoordinateDerivedNotPositionDerived) {
  EXPECT_EQ(SweepSpec::point_id("tree", 4, "R", true, 0.5),
            "family=tree/size=4/strategy=R/p=0.5");
  EXPECT_EQ(SweepSpec::point_id("tree", 4, "", false, 0.0),
            "family=tree/size=4");
}

TEST(SweepSpec, SeedsShareThePAxisAndDecorrelateEverythingElse) {
  const auto points = make_grid_spec().expand();
  // Points 0 and 1 differ only in p: common random numbers, same seed.
  EXPECT_EQ(points[0].seed, points[1].seed);
  // Different strategy, size or family: decorrelated.
  EXPECT_NE(points[0].seed, points[2].seed);  // strategy R vs IR
  EXPECT_NE(points[0].seed, points[4].seed);  // size 3 vs 5
  EXPECT_NE(points[0].seed, points[8].seed);  // family alpha vs beta
  // And the derivation is a pure function of (base seed, coordinates).
  EXPECT_EQ(points[0].seed, SweepSpec::derive_seed(77, "alpha", 3, "R"));
  EXPECT_NE(SweepSpec::derive_seed(78, "alpha", 3, "R"), points[0].seed);
}

TEST(SweepSpec, FingerprintCoversIdentityAndConfig) {
  const std::uint64_t base = make_grid_spec().fingerprint();
  EXPECT_EQ(make_grid_spec().fingerprint(), base);

  SweepSpec renamed("sweep_test_grid2", 77);
  renamed.add_block("alpha", {3, 5}, {"R", "IR"});
  EXPECT_NE(renamed.fingerprint(), base);

  SweepSpec reseeded = make_grid_spec();
  EXPECT_NE(SweepSpec("sweep_test_grid", 78).fingerprint(), base);

  SweepSpec tagged = make_grid_spec();
  tagged.set_config_tag("trials=1000");
  EXPECT_NE(tagged.fingerprint(), base);
}

TEST(SweepSpec, FingerprintPinsTheResultStreamVersion) {
  // A change to the engine's result stream must bump kResultStreamVersion,
  // which moves every fingerprint: update both pins together, on purpose.
  EXPECT_EQ(kResultStreamVersion, 6u);
  EXPECT_EQ(make_grid_spec().fingerprint(), 0xb46cd83c4fd3f42dULL);
  EXPECT_NE(make_grid_spec().fingerprint(), kStreamV1GridFingerprint);
  EXPECT_NE(make_grid_spec().fingerprint(), kStreamV2GridFingerprint);
  EXPECT_NE(make_grid_spec().fingerprint(), kStreamV3GridFingerprint);
  EXPECT_NE(make_grid_spec().fingerprint(), kStreamV4GridFingerprint);
  EXPECT_NE(make_grid_spec().fingerprint(), kStreamV5GridFingerprint);
}

TEST(SweepWire, ResultLinesRoundTripExactly) {
  const auto points = make_grid_spec().expand();
  const RunningStats stats = eval_point(points[3]);
  const std::string line =
      encode_result("sweep_test_grid", 0xabcdef, points[3], stats);
  const auto decoded = decode_result(line);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sweep, "sweep_test_grid");
  EXPECT_EQ(decoded->fingerprint, 0xabcdefu);
  EXPECT_EQ(decoded->index, 3u);
  EXPECT_EQ(decoded->id, points[3].id);
  EXPECT_EQ(decoded->stats.count(), stats.count());
  EXPECT_EQ(decoded->stats.mean(), stats.mean());
  EXPECT_EQ(decoded->stats.sum_squared_deviations(),
            stats.sum_squared_deviations());
  EXPECT_EQ(decoded->stats.min(), stats.min());
  EXPECT_EQ(decoded->stats.max(), stats.max());
}

TEST(SweepWire, NonFiniteMomentsSurvive) {
  SweepPoint point;
  point.index = 0;
  point.id = "family=x/size=1";
  const RunningStats stats = RunningStats::from_moments(
      2, std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(), 1.0,
      std::numeric_limits<double>::infinity());
  const auto decoded = decode_result(encode_result("s", 1, point, stats));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::isinf(decoded->stats.mean()));
  EXPECT_TRUE(std::isnan(decoded->stats.sum_squared_deviations()));
}

TEST(SweepWire, MalformedAndTruncatedLinesAreRejectedNotFatal) {
  EXPECT_FALSE(decode_result("").has_value());
  EXPECT_FALSE(decode_result("not json").has_value());
  EXPECT_FALSE(decode_result("{\"sweep\": \"s\"}").has_value());
  const auto points = make_grid_spec().expand();
  const std::string line =
      encode_result("s", 1, points[0], eval_point(points[0]));
  EXPECT_FALSE(decode_result(line.substr(0, line.size() / 2)).has_value());
  EXPECT_TRUE(decode_result(line).has_value());

  EXPECT_FALSE(decode_request("{\"nope\": 1}").has_value());
  EXPECT_EQ(decode_request(encode_request(7)).value(), 7u);
}

TEST(SweepRunner, InProcessRunEvaluatesEveryPointInOrder) {
  std::vector<std::string> seen;
  const auto results = SweepRunner(make_grid_spec(), SweepOptions{})
                           .run([&](const SweepPoint& p) {
                             seen.push_back(p.id);
                             return eval_point(p);
                           });
  ASSERT_EQ(results.size(), 10u);
  ASSERT_EQ(seen.size(), 10u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(seen[i], results[i].point.id);
    EXPECT_FALSE(results[i].from_checkpoint);
    EXPECT_EQ(results[i].stats.mean(), eval_point(results[i].point).mean());
  }
}

TEST(SweepRunner, PointFilterRunsExactlyOneIsolatedPoint) {
  const std::string target = "family=alpha/size=5/strategy=IR/p=0.5";
  SweepOptions options;
  options.point_filter = target;
  std::size_t evaluations = 0;
  const auto results =
      SweepRunner(make_grid_spec(), options).run([&](const SweepPoint& p) {
        ++evaluations;
        return eval_point(p);
      });
  EXPECT_EQ(evaluations, 1u);
  ASSERT_EQ(results.size(), 10u);
  const auto full =
      SweepRunner(make_grid_spec(), SweepOptions{}).run(eval_point);
  for (const auto& result : results) {
    if (result.point.id == target) {
      EXPECT_FALSE(result.skipped);
      // The isolated re-run reproduces the full sweep's value exactly.
      EXPECT_EQ(result.stats.mean(),
                full[result.point.index].stats.mean());
      EXPECT_EQ(result.stats.count(),
                full[result.point.index].stats.count());
    } else {
      EXPECT_TRUE(result.skipped) << result.point.id;
      EXPECT_EQ(result.stats.count(), 0u) << result.point.id;
    }
  }
}

TEST(SweepRunner, PointFilterRejectsUnknownIds) {
  SweepOptions options;
  options.point_filter = "family=nope/size=1/p=0.5";
  EXPECT_THROW(SweepRunner(make_grid_spec(), options).run(eval_point),
               std::invalid_argument);
}

TEST(SweepRunner, FamilyFilterRunsExactlyThatFamilysSlice) {
  SweepOptions options;
  options.family_filter = "beta";
  std::size_t evaluations = 0;
  const auto results =
      SweepRunner(make_grid_spec(), options).run([&](const SweepPoint& p) {
        ++evaluations;
        EXPECT_EQ(p.family, "beta");
        return eval_point(p);
      });
  EXPECT_EQ(evaluations, 2u);  // beta x {0.25, 0.5}
  const auto full =
      SweepRunner(make_grid_spec(), SweepOptions{}).run(eval_point);
  for (const auto& result : results) {
    if (result.point.family == "beta") {
      EXPECT_FALSE(result.skipped);
      EXPECT_EQ(result.stats.mean(), full[result.point.index].stats.mean());
    } else {
      EXPECT_TRUE(result.skipped) << result.point.id;
    }
  }
}

TEST(SweepRunner, SizeFilterConjoinsWithFamilyFilter) {
  SweepOptions options;
  options.family_filter = "alpha";
  options.size_filter = 5;
  std::size_t evaluations = 0;
  const auto results =
      SweepRunner(make_grid_spec(), options).run([&](const SweepPoint& p) {
        ++evaluations;
        EXPECT_EQ(p.family, "alpha");
        EXPECT_EQ(p.size, 5u);
        return eval_point(p);
      });
  EXPECT_EQ(evaluations, 4u);  // alpha x size 5 x {R, IR} x {0.25, 0.5}
  std::size_t selected = 0;
  for (const auto& result : results)
    if (!result.skipped) ++selected;
  EXPECT_EQ(selected, 4u);
}

TEST(SweepRunner, SizeFilterAloneCutsAcrossFamilies) {
  SweepOptions options;
  options.size_filter = 10;
  std::size_t evaluations = 0;
  SweepRunner(make_grid_spec(), options).run([&](const SweepPoint& p) {
    ++evaluations;
    EXPECT_EQ(p.size, 10u);
    return eval_point(p);
  });
  EXPECT_EQ(evaluations, 2u);
}

TEST(SweepRunner, UnmatchedFamilyOrSizeFiltersThrow) {
  SweepOptions family_options;
  family_options.family_filter = "gamma";
  EXPECT_THROW(SweepRunner(make_grid_spec(), family_options).run(eval_point),
               std::invalid_argument);
  SweepOptions size_options;
  size_options.size_filter = 42;
  EXPECT_THROW(SweepRunner(make_grid_spec(), size_options).run(eval_point),
               std::invalid_argument);
  // Individually matching filters whose conjunction is empty also throw.
  SweepOptions conjunction;
  conjunction.family_filter = "beta";
  conjunction.size_filter = 3;
  EXPECT_THROW(SweepRunner(make_grid_spec(), conjunction).run(eval_point),
               std::invalid_argument);
}

TEST(SweepRunner, WorkerCountsZeroOneAndFourAgreeBitForBit) {
  const auto baseline =
      SweepRunner(make_grid_spec(), SweepOptions{}).run(eval_point);
  for (const std::size_t workers : {1u, 4u}) {
    SweepOptions options;
    options.workers = workers;
    options.worker_command = self_worker_command("grid");
    const auto sharded =
        SweepRunner(make_grid_spec(), options).run(eval_point);
    expect_same_results(baseline, sharded);
  }
}

TEST(SweepRunner, CrashedWorkerForfeitsOnlyItsInFlightPoint) {
  // "crash" workers _exit(9) on point index 2: the first worker to draw it
  // dies, the point is re-queued, kills the second worker too, and the
  // runner finishes the remainder in-process.  The aggregated results must
  // be indistinguishable from a healthy run.
  const auto baseline =
      SweepRunner(make_grid_spec(), SweepOptions{}).run(eval_point);
  SweepOptions options;
  options.workers = 2;
  options.worker_command = self_worker_command("crash");
  const auto recovered = SweepRunner(make_grid_spec(), options).run(eval_point);
  expect_same_results(baseline, recovered);
}

TEST(SweepRunner, ForeignWorkersAreContainedByTheFingerprintCheck) {
  // Workers serving a spec with a different config tag answer with a
  // mismatched fingerprint; the runner must drop them and fall back.
  SweepSpec tagged = make_grid_spec();
  tagged.set_config_tag("different-context");
  SweepOptions options;
  options.workers = 2;
  options.worker_command = self_worker_command("grid");
  const auto results = SweepRunner(tagged, options).run(eval_point);
  const auto baseline =
      SweepRunner(make_grid_spec(), SweepOptions{}).run(eval_point);
  expect_same_results(baseline, results);
}

TEST(SweepRunner, HungWorkerIsFreedByThePointDeadline) {
  // "hang" workers block forever on point index 2 -- only the first one to
  // draw it, which claims an exclusive marker file -- while their heartbeat
  // thread keeps them live, so only the point-deadline watchdog can get the
  // point back.  It must be forfeited exactly once, to the other worker,
  // and the results must match the in-process run bit for bit.
  const std::string marker = temp_path("hang.marker");
  std::remove(marker.c_str());
  obs::Counter& deadline_forfeits =
      obs::MetricsRegistry::instance().counter("net/deadline_forfeits");
  const std::uint64_t forfeits_before = deadline_forfeits.value();

  SweepOptions options;
  options.workers = 2;
  options.worker_command = self_worker_command("hang");
  options.worker_command.push_back(marker);
  options.engine.heartbeat_interval = 0.2;
  options.engine.point_deadline = 1.0;
  const auto recovered = SweepRunner(make_grid_spec(), options).run(eval_point);

  EXPECT_EQ(::access(marker.c_str(), F_OK), 0) << "no worker hung";
  if (obs::kMetricsCompiled) {
    EXPECT_EQ(deadline_forfeits.value() - forfeits_before, 1u);
  }
  const auto baseline =
      SweepRunner(make_grid_spec(), SweepOptions{}).run(eval_point);
  expect_same_results(baseline, recovered);
  std::remove(marker.c_str());
}

std::string render_json(const std::vector<PointResult>& results) {
  std::ostringstream out;
  SweepReport("sweep_test_grid", results).write_json(out);
  return out.str();
}

TEST(SweepCheckpoint, ResumeSkipsJournaledPointsExactly) {
  const std::string path = temp_path("resume.jsonl");
  const SweepSpec spec = make_grid_spec();
  std::atomic<int> calls{0};
  const auto counting_eval = [&](const SweepPoint& p) {
    ++calls;
    return eval_point(p);
  };
  obs::Counter& writes =
      obs::MetricsRegistry::instance().counter("sweep/checkpoint_writes");
  obs::Counter& syncs =
      obs::MetricsRegistry::instance().counter("sweep/checkpoint_syncs");

  // The first pass runs in-process (one journal commit per point) and
  // sharded (one commit per delivery round of the coordinator loop); both
  // must journal exactly one line per point.
  for (const std::size_t workers : {0u, 2u}) {
    SCOPED_TRACE("first pass with workers=" + std::to_string(workers));
    std::remove(path.c_str());
    calls = 0;
    SweepOptions first;
    first.checkpoint_path = path;
    first.workers = workers;
    if (workers > 0) first.worker_command = self_worker_command("grid");
    const std::uint64_t writes_before = writes.value();
    const std::uint64_t syncs_before = syncs.value();
    const auto full = SweepRunner(spec, first).run(counting_eval);
    if (workers == 0) {
      EXPECT_EQ(calls.load(), 10);
    }
    if (obs::kMetricsCompiled) {
      const std::uint64_t wrote = writes.value() - writes_before;
      const std::uint64_t synced = syncs.value() - syncs_before;
      EXPECT_EQ(wrote, 10u);
      if (workers == 0) {
        EXPECT_EQ(synced, 10u);
      } else {
        EXPECT_GE(synced, 1u);
        EXPECT_LE(synced, wrote);
      }
    }

    std::vector<std::string> lines;
    {
      std::ifstream in(path);
      std::string line;
      while (std::getline(in, line)) lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 10u);  // one line per result, nothing else

    // An interrupted run keeps the first four result lines: points 0-3
    // in-process, whichever four arrived first when sharded.
    std::vector<char> kept(lines.size(), 0);
    for (std::size_t i = 0; i < 4; ++i) {
      const auto result = decode_result(lines[i]);
      ASSERT_TRUE(result.has_value()) << lines[i];
      kept.at(result->index) = 1;
    }
    // Journals written by older builds also start with an epoch control
    // record; a resume must count it as control, never as corruption, and
    // otherwise ignore it.
    const std::string legacy_epoch =
        "{\"ctl\": \"epoch\", \"sweep\": \"" + spec.name() +
        "\", \"fp\": \"" + encode_hex_u64(spec.fingerprint()) +
        "\", \"epoch\": 1}";
    for (const bool legacy : {false, true}) {
      SCOPED_TRACE(legacy ? "legacy journal with an epoch record"
                          : "current journal");
      {
        std::ofstream out(path, std::ios::trunc);
        if (legacy) out << legacy_epoch << "\n";
        for (std::size_t i = 0; i < 4; ++i) out << lines[i] << "\n";
      }
      {
        testing::internal::CaptureStderr();
        SweepCheckpoint scan(path, spec.name(), spec.fingerprint(),
                             /*resume=*/true);
        const std::string warnings = testing::internal::GetCapturedStderr();
        EXPECT_TRUE(scan.recovery().existed);
        EXPECT_EQ(scan.recovery().recovered, 4u);
        EXPECT_EQ(scan.recovery().control, legacy ? 1u : 0u);
        EXPECT_EQ(scan.recovery().corrupt, 0u);
        EXPECT_EQ(scan.recovery().foreign, 0u);
        EXPECT_EQ(warnings.find("unparseable"), std::string::npos)
            << warnings;
      }

      calls = 0;
      SweepOptions second;
      second.checkpoint_path = path;
      second.resume = true;
      testing::internal::CaptureStderr();
      const auto resumed = SweepRunner(spec, second).run(counting_eval);
      const std::string warnings = testing::internal::GetCapturedStderr();
      EXPECT_EQ(warnings.find("unparseable"), std::string::npos) << warnings;
      EXPECT_EQ(calls.load(), 6);  // only the six non-journaled points
      expect_same_results(full, resumed);
      EXPECT_EQ(render_json(resumed), render_json(full));
      for (std::size_t i = 0; i < resumed.size(); ++i)
        EXPECT_EQ(resumed[i].from_checkpoint, kept[i] != 0) << i;

      // A second resume re-runs nothing at all.
      calls = 0;
      const auto third = SweepRunner(spec, second).run(counting_eval);
      EXPECT_EQ(calls.load(), 0);
      expect_same_results(full, third);
      EXPECT_EQ(render_json(third), render_json(full));
    }
  }
  std::remove(path.c_str());
}

TEST(SweepCheckpoint, MismatchedFingerprintsAndGarbageLinesAreIgnored) {
  const std::string path = temp_path("mismatch.jsonl");
  std::remove(path.c_str());
  {
    SweepOptions options;
    options.checkpoint_path = path;
    SweepRunner(make_grid_spec(), options).run(eval_point);
  }
  // Append garbage and a truncated line, as a SIGKILL mid-write would.
  {
    std::ofstream out(path, std::ios::app);
    out << "not json at all\n{\"sweep\": \"sweep_test_grid\", \"fp\"";
  }
  // Same journal, different config: nothing may be revived.
  SweepSpec tagged = make_grid_spec();
  tagged.set_config_tag("other-budget");
  std::atomic<int> calls{0};
  SweepOptions resume_options;
  resume_options.checkpoint_path = path;
  resume_options.resume = true;
  SweepRunner(tagged, resume_options).run([&](const SweepPoint& p) {
    ++calls;
    return eval_point(p);
  });
  EXPECT_EQ(calls.load(), 10);

  // Matching spec: all ten revived despite the garbage suffix.
  calls = 0;
  SweepRunner(make_grid_spec(), resume_options).run([&](const SweepPoint& p) {
    ++calls;
    return eval_point(p);
  });
  EXPECT_EQ(calls.load(), 0);

  // The same journal as written by an earlier result-stream version (that
  // version's fingerprint on every line): all ten are recomputed.
  for (const std::uint64_t old_fingerprint :
       {kStreamV1GridFingerprint, kStreamV2GridFingerprint,
        kStreamV3GridFingerprint, kStreamV4GridFingerprint,
        kStreamV5GridFingerprint}) {
    const std::string old_path = temp_path("mismatch_old.jsonl");
    {
      std::ifstream in(path);
      std::ofstream out(old_path, std::ios::trunc);
      const std::string current =
          encode_hex_u64(make_grid_spec().fingerprint());
      const std::string previous = encode_hex_u64(old_fingerprint);
      std::string line;
      while (std::getline(in, line)) {
        for (std::size_t at = line.find(current); at != std::string::npos;
             at = line.find(current, at))
          line.replace(at, current.size(), previous);
        out << line << '\n';
      }
    }
    calls = 0;
    SweepOptions old_options;
    old_options.checkpoint_path = old_path;
    old_options.resume = true;
    SweepRunner(make_grid_spec(), old_options).run([&](const SweepPoint& p) {
      ++calls;
      return eval_point(p);
    });
    EXPECT_EQ(calls.load(), 10) << std::hex << old_fingerprint;
    std::remove(old_path.c_str());
  }
  std::remove(path.c_str());
}

TEST(SweepReport, RendersInPointOrderAndFindsById) {
  const auto results =
      SweepRunner(make_grid_spec(), SweepOptions{}).run(eval_point);
  const SweepReport report("sweep_test_grid", results);
  EXPECT_EQ(report.checkpointed_count(), 0u);
  const auto* found = report.find("family=beta/size=10/p=0.5");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->point.index, 9u);
  EXPECT_EQ(report.find("family=nope/size=1"), nullptr);

  std::ostringstream json;
  report.write_json(json);
  std::ostringstream table;
  report.print(table);
  // Both renderings list every point, in order.
  std::size_t last = 0;
  for (const auto& result : results) {
    const std::size_t at = json.str().find("\"" + result.point.id + "\"");
    ASSERT_NE(at, std::string::npos) << result.point.id;
    EXPECT_GE(at, last);
    last = at;
    EXPECT_NE(table.str().find(result.point.id), std::string::npos);
  }
}

}  // namespace

/// Worker-mode entry, reached from main() below in re-exec'ed copies of
/// this binary.
int run_test_worker(const std::string& mode, const std::string& arg) {
  const SweepSpec spec = make_grid_spec();
  if (mode == "grid") return SweepRunner::serve(spec, eval_point, 0, 3);
  if (mode == "crash") {
    return SweepRunner::serve(
        spec,
        [](const SweepPoint& point) {
          if (point.index == 2) ::_exit(9);
          return eval_point(point);
        },
        0, 3);
  }
  if (mode == "hang") {
    return SweepRunner::serve(
        spec,
        [&arg](const SweepPoint& point) {
          if (point.index == 2 &&
              ::open(arg.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644) >= 0)
            for (;;) ::pause();  // the heartbeat thread keeps beating
          return eval_point(point);
        },
        0, 3);
  }
  return 2;
}

}  // namespace qps::sweep

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "--sweep-test-worker")
    return qps::sweep::run_test_worker(argv[2], argc >= 4 ? argv[3] : "");
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
