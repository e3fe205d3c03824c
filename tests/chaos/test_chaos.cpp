// Chaos suite: the fault-injection matrix, end to end.
//
// Every test here arms a fault (core/fault/fault.h) somewhere in the
// execution stack -- the checkpoint journal, a worker subprocess, a TCP
// evaluator, the DP kernel's level allocation -- and asserts one of
// exactly two outcomes:
//
//  1. full recovery: the aggregated results are byte-identical to a
//     clean run (the fault cost retries, never data), or
//  2. clean quarantine: the poisoned point is reported as quarantined
//     with zero samples and every *other* point is byte-identical.
//
// Anything else -- a hang (the ctest timeout is the assertion), an abort,
// or silently wrong aggregates -- is the bug this suite exists to catch.
//
// Like the sweep suite, this binary re-execs itself as the worker
// subprocess: main() intercepts `--chaos-worker FAULTSPEC` before
// GoogleTest sees argv, installs the spec in the *child's* registry, and
// enters SweepRunner::serve().  Faults therefore reach workers through
// their argv, never through the parent's process-global registry.
//
// The registry is process-global, so every test clears it on entry and
// exit.  Tests that need a fault to actually fire skip themselves under
// -DQPS_FAULT=OFF; the scripted-misbehavior scenarios (sim workers dying
// or stalling) run in both configurations.
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/exact/decision_tree.h"
#include "core/exact/dp_kernel.h"
#include "core/exact/ppc_exact.h"
#include "core/fault/fault.h"
#include "core/net/socket.h"
#include "core/net/socket_sweep.h"
#include "core/sweep/checkpoint.h"
#include "core/sweep/sweep_runner.h"
#include "core/sweep/sweep_spec.h"
#include "core/sweep/wire.h"
#include "quorum/majority.h"
#include "sim/simulator.h"
#include "tests/support/protocol_harness.h"
#include "tests/support/stream_network.h"
#include "util/rng.h"
#include "util/stats.h"

namespace qps::chaos {
namespace {

using sweep::PointResult;
using sweep::SweepOptions;
using sweep::SweepPoint;
using sweep::SweepRunner;
using sweep::SweepSpec;

/// The grid the parent tests and the re-exec'ed workers must agree on.
SweepSpec make_chaos_spec() {
  SweepSpec spec("chaos_grid", 101);
  spec.add_block("alpha", {3, 5}, {"R", "IR"});
  spec.add_block("beta", {10});
  spec.set_ps({0.25, 0.5});
  return spec;
}

/// Deterministic pure function of the point, with its own fault point so
/// tests can poison the *parent's* last-resort evaluation specifically.
RunningStats eval_point(const SweepPoint& point) {
  QPS_FAULT_POINT2("chaos/eval", point.id);
  Rng rng = Rng::for_stream(point.seed, 4711);
  RunningStats stats;
  for (int i = 0; i < 193; ++i)
    stats.add(rng.uniform01() * (1.0 + point.p) +
              static_cast<double>(point.size));
  return stats;
}

std::vector<std::string> self_worker_command(const std::string& fault_spec) {
  return {"/proc/self/exe", "--chaos-worker",
          fault_spec.empty() ? "none" : fault_spec};
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "qps_chaos_" + std::to_string(::getpid()) +
         "_" + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void expect_same_results(const std::vector<PointResult>& clean,
                         const std::vector<PointResult>& chaotic) {
  ASSERT_EQ(clean.size(), chaotic.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(clean[i].point.id, chaotic[i].point.id);
    EXPECT_FALSE(chaotic[i].quarantined) << chaotic[i].point.id;
    EXPECT_EQ(clean[i].stats.count(), chaotic[i].stats.count())
        << clean[i].point.id;
    EXPECT_EQ(clean[i].stats.mean(), chaotic[i].stats.mean())
        << clean[i].point.id;
    EXPECT_EQ(clean[i].stats.sum_squared_deviations(),
              chaotic[i].stats.sum_squared_deviations())
        << clean[i].point.id;
    EXPECT_EQ(clean[i].stats.min(), chaotic[i].stats.min())
        << clean[i].point.id;
    EXPECT_EQ(clean[i].stats.max(), chaotic[i].stats.max())
        << clean[i].point.id;
  }
}

class ChaosTest : public testing::Test {
 protected:
  void SetUp() override { fault::clear(); }
  void TearDown() override { fault::clear(); }
};

// GTEST_SKIP() only aborts the function it appears in, so this must be a
// macro expanded in the test body, not a helper call.
#define REQUIRE_FAULTS()                                             \
  if (!qps::fault::kFaultCompiled)                                   \
  GTEST_SKIP() << "fault injection compiled out (QPS_FAULT=OFF)"

// ---------------------------------------------------------------------------
// Checkpoint journal: torn tail, corrupt mid-file line, empty file, full
// disk.  Contract: resume recomputes exactly the damaged/missing points
// (diagnosed, never silent) and the merged results are byte-identical.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, TornJournalTailIsDiagnosedAndOnlyThatPointRecomputed) {
  REQUIRE_FAULTS();
  const std::string path = temp_path("torn.jsonl");
  std::remove(path.c_str());

  // Tear the last append (the 10th result is write #10): the run
  // completes, the journal does not.
  fault::configure("sweep/checkpoint_write:torn:frac=0.3:after=10:count=1");
  SweepOptions first;
  first.checkpoint_path = path;
  const auto full = SweepRunner(make_chaos_spec(), first).run(eval_point);
  fault::clear();

  // The resume scan must count exactly one unparseable line.
  {
    const SweepSpec spec = make_chaos_spec();
    sweep::SweepCheckpoint scan(path, spec.name(), spec.fingerprint(),
                                /*resume=*/true);
    EXPECT_TRUE(scan.recovery().existed);
    EXPECT_EQ(scan.recovery().recovered, 9u);
    EXPECT_EQ(scan.recovery().corrupt, 1u);
  }

  std::atomic<int> calls{0};
  SweepOptions second;
  second.checkpoint_path = path;
  second.resume = true;
  const auto resumed =
      SweepRunner(make_chaos_spec(), second).run([&](const SweepPoint& p) {
        ++calls;
        return eval_point(p);
      });
  EXPECT_EQ(calls.load(), 1);  // only the torn point
  expect_same_results(full, resumed);
  for (std::size_t i = 0; i < resumed.size(); ++i)
    EXPECT_EQ(resumed[i].from_checkpoint, i < 9) << i;
  std::remove(path.c_str());
}

TEST_F(ChaosTest, CorruptMidJournalLineIsSkippedNotTrusted) {
  const std::string path = temp_path("corrupt.jsonl");
  std::remove(path.c_str());

  SweepOptions first;
  first.checkpoint_path = path;
  const auto full = SweepRunner(make_chaos_spec(), first).run(eval_point);

  // Damage a mid-file result line in place, as a bad sector or partial
  // overwrite would.
  auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 10u);
  lines[3] = "XX" + lines[3].substr(0, lines[3].size() / 2);
  {
    std::ofstream out(path, std::ios::trunc);
    for (const auto& line : lines) out << line << "\n";
  }

  {
    const SweepSpec spec = make_chaos_spec();
    sweep::SweepCheckpoint scan(path, spec.name(), spec.fingerprint(),
                                /*resume=*/true);
    EXPECT_EQ(scan.recovery().recovered, 9u);
    EXPECT_EQ(scan.recovery().corrupt, 1u);
  }

  std::atomic<int> calls{0};
  SweepOptions second;
  second.checkpoint_path = path;
  second.resume = true;
  const auto resumed =
      SweepRunner(make_chaos_spec(), second).run([&](const SweepPoint& p) {
        ++calls;
        return eval_point(p);
      });
  EXPECT_EQ(calls.load(), 1);  // only the damaged point
  expect_same_results(full, resumed);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, ZeroByteJournalResumesFromScratchWithoutError) {
  const std::string path = temp_path("empty.jsonl");
  { std::ofstream out(path, std::ios::trunc); }  // exists, zero bytes

  {
    const SweepSpec spec = make_chaos_spec();
    sweep::SweepCheckpoint scan(path, spec.name(), spec.fingerprint(),
                                /*resume=*/true);
    EXPECT_TRUE(scan.recovery().existed);
    EXPECT_EQ(scan.recovery().recovered, 0u);
    EXPECT_EQ(scan.recovery().corrupt, 0u);
  }

  std::atomic<int> calls{0};
  SweepOptions options;
  options.checkpoint_path = path;
  options.resume = true;
  const auto resumed =
      SweepRunner(make_chaos_spec(), options).run([&](const SweepPoint& p) {
        ++calls;
        return eval_point(p);
      });
  EXPECT_EQ(calls.load(), 10);  // everything recomputed, nothing invented
  const auto baseline =
      SweepRunner(make_chaos_spec(), SweepOptions{}).run(eval_point);
  expect_same_results(baseline, resumed);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, FullDiskSurfacesCheckpointErrorThenResumesCleanly) {
  REQUIRE_FAULTS();
  const std::string path = temp_path("diskfull.jsonl");
  const auto baseline =
      SweepRunner(make_chaos_spec(), SweepOptions{}).run(eval_point);

  // In-process every result is its own commit; sharded, the coordinator
  // commits once per delivery round, so the failing write usually lands
  // mid-round, after lines of the same round that are written but not yet
  // synced.
  for (const std::size_t workers : {0u, 2u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::remove(path.c_str());

    // The third append (the third result) hits the injected "disk full":
    // the run must abort with a structured error naming the journal,
    // never continue with a silently lossy one.
    fault::configure("sweep/checkpoint_write:error:after=3");
    SweepOptions first;
    first.checkpoint_path = path;
    first.workers = workers;
    if (workers > 0) first.worker_command = self_worker_command("");
    try {
      SweepRunner(make_chaos_spec(), first).run(eval_point);
      FAIL() << "expected CheckpointError";
    } catch (const sweep::CheckpointError& e) {
      EXPECT_EQ(e.path(), path);
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
    fault::clear();
    // Two whole result lines, nothing torn.
    const auto lines = read_lines(path);
    EXPECT_EQ(lines.size(), 2u);
    for (const std::string& line : lines)
      EXPECT_TRUE(sweep::decode_result(line).has_value()) << line;
    {
      std::ifstream in(path, std::ios::binary);
      const std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      ASSERT_FALSE(bytes.empty());
      EXPECT_EQ(bytes.back(), '\n');
    }

    // With the "disk" healthy again, resume finishes the remaining eight.
    std::atomic<int> calls{0};
    SweepOptions second;
    second.checkpoint_path = path;
    second.resume = true;
    const auto resumed =
        SweepRunner(make_chaos_spec(), second).run([&](const SweepPoint& p) {
          ++calls;
          return eval_point(p);
        });
    EXPECT_EQ(calls.load(), 8);
    expect_same_results(baseline, resumed);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// DP kernel: a failed allocation -- the frontier, or a level's argmin table
// -- must degrade to the structured BudgetExceeded naming the level, and
// the very next solve must be untainted.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, MidSolveAllocationFailureDegradesToBudgetExceeded) {
  REQUIRE_FAULTS();
  const MajoritySystem majority(9);
  const double clean = ppc_exact(majority, 0.5);
  const std::string clean_tree = optimal_ppc_tree(majority, 0.5)->to_ascii();

  // after=1: plain ppc_exact allocates once, the whole frontier up front.
  fault::configure("exact/level_alloc:alloc:after=1:count=1");
  try {
    ppc_exact(majority, 0.5);
    FAIL() << "expected exact::BudgetExceeded";
  } catch (const exact::BudgetExceeded& e) {
    EXPECT_EQ(e.universe_size(), 9u);
    EXPECT_EQ(e.level(), 9u);
    EXPECT_EQ(e.frontier_bytes(),
              exact::dp_frontier_layout(9).states() * sizeof(double));
    EXPECT_NE(std::string(e.what()).find("out of memory"), std::string::npos)
        << e.what();
  }
  fault::clear();
  EXPECT_EQ(ppc_exact(majority, 0.5), clean);

  // after=2: a recorded-policy solve also allocates an argmin table per
  // level; the frontier is in hand when the top level's table "fails" --
  // the case the upfront feasibility check cannot catch.
  fault::configure("exact/level_alloc:alloc:after=2:count=1");
  try {
    optimal_ppc_tree(majority, 0.5);
    FAIL() << "expected exact::BudgetExceeded";
  } catch (const exact::BudgetExceeded& e) {
    EXPECT_EQ(e.universe_size(), 9u);
    EXPECT_EQ(e.level(), 9u);
    EXPECT_EQ(e.frontier_bytes(), exact::dp_state_count(9, 9));
    EXPECT_NE(std::string(e.what()).find("out of memory"), std::string::npos)
        << e.what();
  }
  fault::clear();

  // The failure is stateless: the same solves succeed bit-identically.
  EXPECT_EQ(optimal_ppc_tree(majority, 0.5)->to_ascii(), clean_tree);
  EXPECT_EQ(ppc_exact(majority, 0.5), clean);
}

TEST_F(ChaosTest, AllocationFailureWhileTheFrontierGrowsLeavesNoStaleBlock) {
  REQUIRE_FAULTS();
  const MajoritySystem maj9(9);
  const MajoritySystem maj11(11);
  const MajoritySystem maj13(13);
  // Clean references, each on a fresh thread with no frontier block yet.
  double clean9 = 0.0;
  double clean13 = 0.0;
  std::thread([&] { clean9 = ppc_exact(maj9, 0.5); }).join();
  std::thread([&] { clean13 = ppc_exact(maj13, 0.5); }).join();

  std::thread([&] {
    // The thread now keeps a Maj9-sized block; Maj11 must grow it, and
    // the growth "fails".
    EXPECT_EQ(ppc_exact(maj9, 0.5), clean9);
    fault::configure("exact/level_alloc:alloc:after=1:count=1");
    try {
      ppc_exact(maj11, 0.5);
      ADD_FAILURE() << "expected exact::BudgetExceeded";
    } catch (const exact::BudgetExceeded& e) {
      EXPECT_EQ(e.universe_size(), 11u);
      EXPECT_EQ(e.level(), 11u);
      EXPECT_EQ(e.frontier_bytes(),
                exact::dp_frontier_layout(11).states() * sizeof(double));
    }
    fault::clear();
    // Whatever the failed growth left behind, a smaller and a larger solve
    // on the same thread read none of it.
    EXPECT_EQ(ppc_exact(maj9, 0.5), clean9);
    EXPECT_EQ(ppc_exact(maj13, 0.5), clean13);
  }).join();
}

// ---------------------------------------------------------------------------
// Pipe runner (worker subprocesses): crash faults are absorbed
// byte-identically; a point that also fails the in-process last resort is
// quarantined, poisoning nothing else.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, WorkerCrashFaultRecoversByteIdentical) {
  // Workers crash (via the injected crash action in their own registry)
  // whenever they draw the poison point; the parent's last resort
  // evaluates it cleanly.  No quarantine, no drift.
  const auto baseline =
      SweepRunner(make_chaos_spec(), SweepOptions{}).run(eval_point);
  SweepOptions options;
  options.workers = 2;
  options.worker_command =
      self_worker_command("sweep/point_eval:crash:match=family=beta/size=10/p=0.25");
  const auto recovered =
      SweepRunner(make_chaos_spec(), options).run(eval_point);
  expect_same_results(baseline, recovered);
}

TEST_F(ChaosTest, DelayFaultCostsTimeNeverBytes) {
  const auto baseline =
      SweepRunner(make_chaos_spec(), SweepOptions{}).run(eval_point);
  SweepOptions options;
  options.workers = 2;
  options.worker_command = self_worker_command("sweep/point_eval:delay:ms=1");
  const auto delayed = SweepRunner(make_chaos_spec(), options).run(eval_point);
  expect_same_results(baseline, delayed);
}

TEST_F(ChaosTest, DeterministicPoisonPointIsQuarantinedCleanly) {
  REQUIRE_FAULTS();
  const std::string poison = "family=beta/size=10/p=0.25";
  // Workers crash on the poison point AND the parent's last resort throws
  // on it: every avenue fails, so the point must be quarantined -- with
  // every other point still byte-identical.
  fault::configure("chaos/eval:error:match=" + poison);
  SweepOptions options;
  options.workers = 2;
  options.worker_command =
      self_worker_command("sweep/point_eval:crash:match=" + poison);
  const auto results = SweepRunner(make_chaos_spec(), options).run(eval_point);
  fault::clear();

  const auto baseline =
      SweepRunner(make_chaos_spec(), SweepOptions{}).run(eval_point);
  ASSERT_EQ(results.size(), baseline.size());
  std::size_t quarantined = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].point.id == poison) {
      ++quarantined;
      EXPECT_TRUE(results[i].quarantined);
      EXPECT_EQ(results[i].stats.count(), 0u);  // no invented samples
    } else {
      EXPECT_FALSE(results[i].quarantined) << results[i].point.id;
      EXPECT_EQ(results[i].stats.mean(), baseline[i].stats.mean())
          << results[i].point.id;
      EXPECT_EQ(results[i].stats.count(), baseline[i].stats.count())
          << results[i].point.id;
    }
  }
  EXPECT_EQ(quarantined, 1u);
}

// ---------------------------------------------------------------------------
// Real TCP: a worker whose evaluator deterministically fails one point
// burns the retry budget through genuine reconnects; with local fallback
// off the coordinator must quarantine exactly that point and aggregate the
// rest byte-identically.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, TcpPoisonPointQuarantinesRestStaysByteIdentical) {
  REQUIRE_FAULTS();
  const SweepSpec spec = make_chaos_spec();
  const auto points = spec.expand();
  // Poison the LAST point so everything else is already aggregated by the
  // time the budget burns; the match string is unambiguous (p=0.5 is not
  // a substring of p=0.25).
  const std::string poison = points.back().id;
  ASSERT_EQ(poison, "family=beta/size=10/p=0.5");
  fault::configure("net/worker_eval:error:match=" + poison);

  net::TcpListener listener = net::TcpListener::bind(0);
  ASSERT_TRUE(listener.valid());
  const std::uint16_t port = listener.port();

  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < points.size(); ++i) pending.push_back(i);

  std::map<std::size_t, RunningStats> results;
  std::vector<std::pair<std::size_t, std::size_t>> quarantined;
  net::SocketCoordinatorOptions options;
  options.local_fallback = false;  // workers (and only workers) compute
  options.engine.max_point_retries = 2;
  options.engine.handshake_timeout = 5.0;
  options.engine.worker_timeout = 10.0;
  options.engine.heartbeat_interval = 0.5;

  std::thread coordinator([&] {
    net::run_socket_sweep(
        listener, points, spec.name(), spec.fingerprint(), pending, eval_point,
        [&](const sweep::ResultRound& round) {
          results.insert(round.begin(), round.end());
        },
        options,
        [&](std::size_t index, std::size_t attempts) {
          quarantined.emplace_back(index, attempts);
        });
  });
  std::thread worker([&] {
    net::WorkerServeOptions serve_options;
    serve_options.node = "chaos-tcp-worker";
    serve_options.connect_retries = 50;
    // Exactly two reconnects: the third loss is the forfeit that trips the
    // quarantine (budget 2), after which the coordinator is gone -- a
    // further reconnect would park in the dead listener's backlog forever.
    serve_options.lost_retries = 2;
    net::serve_pinned_sweep("127.0.0.1", port, spec, eval_point,
                            serve_options);
  });
  coordinator.join();
  worker.join();

  // Exactly the poison point is quarantined, after 3 forfeits (> budget 2).
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0].first, points.size() - 1);
  EXPECT_EQ(quarantined[0].second, 3u);
  // Every other point was computed by the worker, byte-identically.
  ASSERT_EQ(results.size(), points.size() - 1);
  for (const auto& [index, stats] : results) {
    const RunningStats expected = eval_point(points[index]);
    EXPECT_EQ(stats.count(), expected.count()) << points[index].id;
    EXPECT_EQ(stats.mean(), expected.mean()) << points[index].id;
    EXPECT_EQ(stats.sum_squared_deviations(),
              expected.sum_squared_deviations())
        << points[index].id;
  }
}

TEST_F(ChaosTest, JournalFailureOnALastResortResultSurfaces) {
  // The coordinator's last resort rescues a quarantined point, and then
  // recording that result fails (a full journal disk).  The failure must
  // surface from the loop -- never pass for a failed evaluation that
  // quarantines a point whose result was in hand.
  REQUIRE_FAULTS();
  const SweepSpec spec = make_chaos_spec();
  const auto points = spec.expand();
  const std::size_t poison = points.size() - 1;
  fault::configure("net/worker_eval:error:match=" + points[poison].id);

  net::TcpListener listener = net::TcpListener::bind(0);
  ASSERT_TRUE(listener.valid());
  // The worker connects before the loop starts, so the loop accepts it
  // before its local fallback could take a point: the poison point
  // reaches the worker, fails there and is quarantined at once (budget
  // 0), which leaves it to the last resort.
  net::TcpStream stream = net::TcpStream::connect("127.0.0.1", listener.port());
  ASSERT_TRUE(stream.valid());
  std::thread worker([&] {
    net::serve_connection(stream, "chaos-journal-worker", spec, eval_point);
    stream.close();
  });

  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < points.size(); ++i) pending.push_back(i);
  net::SocketCoordinatorOptions options;
  options.engine.max_point_retries = 0;
  std::size_t quarantined = 0;
  try {
    net::run_socket_sweep(
        listener, points, spec.name(), spec.fingerprint(), pending, eval_point,
        [&](const sweep::ResultRound& round) {
          for (const auto& result : round)
            if (result.first == poison)
              throw sweep::CheckpointError("injected journal failure",
                                           "journal");
        },
        options, [&](std::size_t, std::size_t) { ++quarantined; });
    ADD_FAILURE() << "expected CheckpointError";
  } catch (const sweep::CheckpointError& e) {
    EXPECT_EQ(e.path(), "journal");
  }
  listener.close();  // a connection never accepted must not strand the worker
  worker.join();
  EXPECT_EQ(quarantined, 0u);
}

// ---------------------------------------------------------------------------
// Simulated network: scripted worker misbehavior (no fault registry
// involved), so these run under -DQPS_FAULT=OFF too.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, SimPoisonBurnsWorkerFleetThenHonestWorkerFinishes) {
  // Four workers in a row die the instant they are handed a point; the
  // front pending point eats all four (one forfeit each) and is
  // quarantined at the budget.  A late honest worker completes the rest.
  sim::Simulator simulator;
  Rng rng(11);
  sim::StreamNetwork network(simulator, rng);
  const SweepSpec spec = make_chaos_spec();

  sim::SimCoordinatorOptions options;
  options.engine.handshake_timeout = 2.0;
  options.engine.worker_timeout = 5.0;
  options.engine.heartbeat_interval = 0.3;
  options.engine.max_point_retries = 3;
  options.tick_interval = 0.25;
  sim::SimCoordinator coordinator(simulator, network, spec, options);

  std::vector<std::unique_ptr<sim::SimWorker>> killers;
  for (int i = 0; i < 4; ++i) {
    sim::SimWorkerOptions worker;
    worker.node = "killer-" + std::to_string(i);
    worker.join_time = 0.2 + static_cast<double>(i);  // one at a time
    worker.spec = &spec;
    worker.eval = eval_point;
    worker.die_holding = 1;  // die on the first request
    killers.push_back(
        std::make_unique<sim::SimWorker>(simulator, network, worker));
  }
  sim::SimWorkerOptions honest;
  honest.node = "honest";
  honest.join_time = 4.5;  // after the whole fleet has burned
  honest.spec = &spec;
  honest.eval = eval_point;
  sim::SimWorker survivor(simulator, network, honest);

  ASSERT_TRUE(
      simulator.run_until([&] { return coordinator.done(); }, 600.0));
  simulator.run();

  EXPECT_EQ(coordinator.engine().points_quarantined(), 1u);
  // 9 of 10 points have results; each is bit-exact.
  ASSERT_EQ(coordinator.results().size(), spec.point_count() - 1);
  for (const auto& [index, stats] : coordinator.results()) {
    const RunningStats expected = eval_point(coordinator.points()[index]);
    EXPECT_EQ(stats.mean(), expected.mean());
    EXPECT_EQ(stats.count(), expected.count());
  }
  for (const auto& killer : killers)
    EXPECT_EQ(killer->state(), sim::SimWorker::State::kDead);
  EXPECT_EQ(survivor.state(), sim::SimWorker::State::kDone);
}

TEST_F(ChaosTest, SimDeadlineWatchdogForfeitsLiveButStuckWorker) {
  // The worker heartbeats diligently while "evaluating" one point for 50
  // simulated seconds: alive by every liveness measure, useless by the
  // only one that matters.  The point-deadline watchdog must kill it and
  // local fallback must finish the sweep.
  sim::Simulator simulator;
  Rng rng(13);
  sim::StreamNetwork network(simulator, rng);
  const SweepSpec spec = make_chaos_spec();

  sim::SimCoordinatorOptions options;
  options.engine.handshake_timeout = 2.0;
  options.engine.worker_timeout = 30.0;  // heartbeats keep this fed
  options.engine.heartbeat_interval = 0.3;
  options.engine.point_deadline = 1.0;  // ...but progress has a deadline
  options.tick_interval = 0.25;
  options.local_fallback = true;
  options.local_eval = eval_point;
  sim::SimCoordinator coordinator(simulator, network, spec, options);

  sim::SimWorkerOptions stuck;
  stuck.node = "stuck";
  stuck.join_time = 0.1;
  stuck.spec = &spec;
  stuck.eval = eval_point;
  stuck.eval_seconds = 50.0;  // far past the deadline
  stuck.send_heartbeats = true;
  sim::SimWorker worker(simulator, network, stuck);

  ASSERT_TRUE(
      simulator.run_until([&] { return coordinator.done(); }, 600.0));
  simulator.run();

  EXPECT_GE(coordinator.engine().deadline_forfeits(), 1u);
  EXPECT_EQ(coordinator.engine().points_quarantined(), 0u);  // one forfeit
  EXPECT_EQ(worker.state(), sim::SimWorker::State::kLost);
  // Every point completed (locally) and is bit-exact.
  ASSERT_EQ(coordinator.results().size(), spec.point_count());
  for (const auto& [index, stats] : coordinator.results()) {
    const RunningStats expected = eval_point(coordinator.points()[index]);
    EXPECT_EQ(stats.mean(), expected.mean());
    EXPECT_EQ(stats.count(), expected.count());
  }
}

// ---------------------------------------------------------------------------
// Quarantine re-admission: --readmit clears poison markers with a
// journaled record and re-runs exactly those points.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, ReadmitRerunsExactlyTheQuarantinedPointByteIdentical) {
  REQUIRE_FAULTS();
  const std::string path = temp_path("readmit.jsonl");
  std::remove(path.c_str());
  const std::string poison = "family=beta/size=10/p=0.25";

  // Run 1: the poison point fails in the workers AND the in-process last
  // resort -- quarantined, with the marker journaled.
  fault::configure("chaos/eval:error:match=" + poison);
  SweepOptions first;
  first.checkpoint_path = path;
  first.workers = 2;
  first.worker_command =
      self_worker_command("sweep/point_eval:crash:match=" + poison);
  const auto poisoned = SweepRunner(make_chaos_spec(), first).run(eval_point);
  fault::clear();
  std::size_t poison_index = 0;
  for (std::size_t i = 0; i < poisoned.size(); ++i)
    if (poisoned[i].point.id == poison) {
      poison_index = i;
      EXPECT_TRUE(poisoned[i].quarantined);
    }

  // Run 2: plain --resume.  The marker is sticky -- the point failed
  // deterministically, so re-running it without a code change would just
  // burn the budget again.  Nothing is evaluated.
  std::atomic<int> calls{0};
  const auto counting_eval = [&](const SweepPoint& p) {
    ++calls;
    return eval_point(p);
  };
  SweepOptions second;
  second.checkpoint_path = path;
  second.resume = true;
  const auto still = SweepRunner(make_chaos_spec(), second).run(counting_eval);
  EXPECT_EQ(calls.load(), 0);
  EXPECT_TRUE(still[poison_index].quarantined);

  // Run 3: --readmit naming the point (the "code fix" is the cleared
  // fault registry).  Exactly the poisoned point is re-run, the readmit
  // record is journaled, and the final report is byte-identical to a
  // clean sweep.
  calls = 0;
  SweepOptions third;
  third.checkpoint_path = path;
  third.resume = true;
  third.readmit = true;
  third.readmit_points = {poison};
  const auto healed = SweepRunner(make_chaos_spec(), third).run(counting_eval);
  EXPECT_EQ(calls.load(), 1);
  const auto baseline =
      SweepRunner(make_chaos_spec(), SweepOptions{}).run(eval_point);
  expect_same_results(baseline, healed);

  std::size_t readmit_records = 0;
  for (const auto& line : read_lines(path))
    if (const auto ctl = sweep::decode_journal_control(line);
        ctl && ctl->kind == sweep::JournalRecordKind::kReadmit) {
      ++readmit_records;
      EXPECT_EQ(ctl->id, poison);
    }
  EXPECT_EQ(readmit_records, 1u);

  // Run 4: the readmit itself is journaled, so a later plain --resume
  // keeps the healed result instead of resurrecting the marker.
  calls = 0;
  SweepOptions fourth;
  fourth.checkpoint_path = path;
  fourth.resume = true;
  const auto after = SweepRunner(make_chaos_spec(), fourth).run(counting_eval);
  EXPECT_EQ(calls.load(), 0);
  expect_same_results(baseline, after);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, ReadmitNamingAHealthyPointIsRefusedLoudly) {
  const std::string path = temp_path("readmit_refuse.jsonl");
  std::remove(path.c_str());
  SweepOptions first;
  first.checkpoint_path = path;
  SweepRunner(make_chaos_spec(), first).run(eval_point);  // clean run

  SweepOptions bad;
  bad.checkpoint_path = path;
  bad.resume = true;
  bad.readmit = true;
  bad.readmit_points = {"family=alpha/size=3/strategy=R/p=0.25"};
  EXPECT_THROW(SweepRunner(make_chaos_spec(), bad).run(eval_point),
               std::exception);  // nothing is quarantined: refuse, not no-op
  std::remove(path.c_str());
}

}  // namespace

/// Worker-mode entry, reached from main() below in re-exec'ed copies of
/// this binary: install the requested fault spec in THIS process's
/// registry, then serve the chaos grid on the pipe protocol fds.
int run_chaos_worker(const std::string& fault_spec) {
  if (fault_spec != "none") fault::configure(fault_spec);
  return SweepRunner::serve(make_chaos_spec(), eval_point, 0, 3);
}

}  // namespace qps::chaos

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "--chaos-worker")
    return qps::chaos::run_chaos_worker(argv[2]);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
