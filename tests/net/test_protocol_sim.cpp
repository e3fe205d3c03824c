// The distributed failure matrix, as plain ctest cases: the socket worker
// protocol running over the simulated stream network
// (tests/support/protocol_harness.h + tests/support/stream_network.h).
//
// Every scenario the fabric must survive on real hosts -- slow joiners,
// workers dying or vanishing mid-sweep, duplicate deliveries after a
// retransmit, truncated and garbage frames, mixed protocol versions --
// runs here deterministically, and every completed sweep must be
// bit-identical to evaluating the points directly.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/net/messages.h"
#include "core/sweep/sweep_spec.h"
#include "sim/simulator.h"
#include "tests/support/protocol_harness.h"
#include "tests/support/stream_network.h"
#include "util/rng.h"

namespace qps::sim {
namespace {

/// The grid every scenario sweeps: 10 points, mixed strategy/p axes.
sweep::SweepSpec make_spec() {
  sweep::SweepSpec spec("sim_proto_grid", 31);
  spec.add_block("alpha", {3, 5}, {"R", "IR"});
  spec.add_block("beta", {10});
  spec.set_ps({0.25, 0.5});
  return spec;
}

/// Deterministic pure function of the point: what every honest party
/// computes, in-process or across the simulated wire.
RunningStats eval_point(const sweep::SweepPoint& point) {
  Rng rng = Rng::for_stream(point.seed, 4242);
  RunningStats stats;
  for (int i = 0; i < 100; ++i)
    stats.add(rng.uniform01() * (1.0 + point.p) +
              static_cast<double>(point.size));
  return stats;
}

void expect_complete_and_identical(const SimCoordinator& coordinator,
                                   const sweep::SweepSpec& spec,
                                   const sweep::PointEvaluator& eval) {
  const auto points = spec.expand();
  ASSERT_EQ(coordinator.results().size(), points.size());
  for (const auto& point : points) {
    const auto it = coordinator.results().find(point.index);
    ASSERT_NE(it, coordinator.results().end()) << point.id;
    const RunningStats direct = eval(point);
    EXPECT_EQ(it->second.count(), direct.count()) << point.id;
    EXPECT_EQ(it->second.mean(), direct.mean()) << point.id;
    EXPECT_EQ(it->second.sum_squared_deviations(),
              direct.sum_squared_deviations())
        << point.id;
    EXPECT_EQ(it->second.min(), direct.min()) << point.id;
    EXPECT_EQ(it->second.max(), direct.max()) << point.id;
  }
}

/// Common knobs: fast heartbeats and ticks so scenarios resolve quickly.
SimCoordinatorOptions coordinator_options() {
  SimCoordinatorOptions options;
  options.engine.handshake_timeout = 2.0;
  options.engine.worker_timeout = 5.0;
  options.engine.heartbeat_interval = 0.3;
  options.tick_interval = 0.25;
  return options;
}

SimWorkerOptions pinned_worker(const sweep::SweepSpec& spec,
                               const std::string& node) {
  SimWorkerOptions options;
  options.node = node;
  options.spec = &spec;
  options.eval = eval_point;
  options.eval_seconds = 0.02;
  return options;
}

TEST(ProtocolSim, TwoWorkersUnderLatencyAndOneByteSegmentation) {
  Simulator simulator;
  Rng rng(7);
  StreamNetwork network(simulator, rng);
  // Adversarial shaping on every connection from the first hello byte:
  // jittered latency and 1-byte chunks, so every frame crosses the wire
  // maximally fragmented.
  StreamFaults faults;
  faults.latency = uniform_latency(0.001, 0.05);
  faults.max_chunk = 1;
  network.set_default_faults(faults);

  const sweep::SweepSpec spec = make_spec();
  SimCoordinator coordinator(simulator, network, spec,
                             coordinator_options());
  SimWorker first(simulator, network, pinned_worker(spec, "w1"));
  SimWorkerOptions second_options = pinned_worker(spec, "w2");
  second_options.join_time = 0.01;
  SimWorker second(simulator, network, second_options);

  ASSERT_TRUE(
      simulator.run_until([&] { return coordinator.done(); }, 600.0));
  simulator.run();  // drain byes and final closes

  EXPECT_EQ(first.state(), SimWorker::State::kDone);
  EXPECT_EQ(second.state(), SimWorker::State::kDone);
  EXPECT_GT(first.results_sent(), 0u);
  EXPECT_GT(second.results_sent(), 0u);
  EXPECT_EQ(first.results_sent() + second.results_sent(),
            spec.point_count());
  EXPECT_EQ(coordinator.engine().results_from_workers(), spec.point_count());
  // 1-byte chunks really happened: far more deliveries than frames.
  EXPECT_GT(network.chunks_delivered(), 100u);
  expect_complete_and_identical(coordinator, spec, eval_point);
}

TEST(ProtocolSim, SlowJoinerPicksUpPointsMidSweep) {
  Simulator simulator;
  Rng rng(8);
  StreamNetwork network(simulator, rng);
  const sweep::SweepSpec spec = make_spec();
  SimCoordinator coordinator(simulator, network, spec,
                             coordinator_options());
  SimWorkerOptions slow = pinned_worker(spec, "early");
  slow.eval_seconds = 0.1;  // 10 points x 0.1s: plenty left at t=0.25
  SimWorker early(simulator, network, slow);
  SimWorkerOptions late_options = pinned_worker(spec, "late");
  late_options.eval_seconds = 0.1;
  late_options.join_time = 0.25;
  SimWorker late(simulator, network, late_options);

  ASSERT_TRUE(
      simulator.run_until([&] { return coordinator.done(); }, 600.0));
  simulator.run();

  EXPECT_EQ(early.state(), SimWorker::State::kDone);
  EXPECT_EQ(late.state(), SimWorker::State::kDone);
  EXPECT_GT(late.results_sent(), 0u);  // really joined mid-sweep
  expect_complete_and_identical(coordinator, spec, eval_point);
}

TEST(ProtocolSim, WorkerDyingMidSweepForfeitsOnlyItsPoint) {
  Simulator simulator;
  Rng rng(9);
  StreamNetwork network(simulator, rng);
  const sweep::SweepSpec spec = make_spec();
  SimCoordinator coordinator(simulator, network, spec,
                             coordinator_options());
  SimWorkerOptions dying = pinned_worker(spec, "dying");
  dying.die_holding = 2;  // answer one request, die on the second
  SimWorker casualty(simulator, network, dying);
  SimWorkerOptions healthy = pinned_worker(spec, "healthy");
  healthy.join_time = 0.05;
  SimWorker survivor(simulator, network, healthy);

  ASSERT_TRUE(
      simulator.run_until([&] { return coordinator.done(); }, 600.0));
  simulator.run();

  EXPECT_EQ(casualty.state(), SimWorker::State::kDead);
  EXPECT_EQ(casualty.results_sent(), 1u);
  EXPECT_EQ(survivor.state(), SimWorker::State::kDone);
  EXPECT_EQ(survivor.results_sent(), spec.point_count() - 1);
  EXPECT_EQ(coordinator.engine().duplicates_ignored(), 0u);
  expect_complete_and_identical(coordinator, spec, eval_point);
}

TEST(ProtocolSim, VanishedWorkerIsTimedOutAndItsPointReassigned) {
  Simulator simulator;
  Rng rng(10);
  StreamNetwork network(simulator, rng);
  const sweep::SweepSpec spec = make_spec();
  SimCoordinatorOptions options = coordinator_options();
  options.engine.worker_timeout = 2.0;
  SimCoordinator coordinator(simulator, network, spec, options);
  SimWorkerOptions vanishing = pinned_worker(spec, "vanishing");
  vanishing.vanish_holding = 2;  // partition, not close: only the liveness
                                 // timeout can reclaim the point
  SimWorker ghost(simulator, network, vanishing);
  SimWorkerOptions healthy = pinned_worker(spec, "healthy");
  healthy.join_time = 0.05;
  SimWorker survivor(simulator, network, healthy);

  ASSERT_TRUE(
      simulator.run_until([&] { return coordinator.done(); }, 600.0));
  simulator.run();

  EXPECT_EQ(ghost.state(), SimWorker::State::kDead);
  EXPECT_EQ(coordinator.engine().workers_timed_out(), 1u);
  EXPECT_EQ(survivor.state(), SimWorker::State::kDone);
  expect_complete_and_identical(coordinator, spec, eval_point);
}

TEST(ProtocolSim, LateResultAfterTimeoutKillIsIgnored) {
  Simulator simulator;
  Rng rng(11);
  StreamNetwork network(simulator, rng);
  const sweep::SweepSpec spec = make_spec();
  SimCoordinatorOptions options = coordinator_options();
  options.engine.worker_timeout = 1.0;
  options.local_fallback = true;
  options.local_eval = eval_point;
  SimCoordinator coordinator(simulator, network, spec, options);
  // The worker computes for 2 s without heartbeats, so the coordinator
  // times it out at ~1 s and forfeits the point -- but the kill's close
  // rides a partitioned direction and never arrives, so the worker keeps
  // going and its result lands on a session the engine already erased.
  SimWorkerOptions oblivious = pinned_worker(spec, "oblivious");
  oblivious.eval_seconds = 2.0;
  oblivious.send_heartbeats = false;
  SimWorker worker(simulator, network, oblivious);
  simulator.schedule(0.5, [&] {
    network.to_client(worker.conn()).partitioned = true;
  });

  ASSERT_TRUE(
      simulator.run_until([&] { return coordinator.done(); }, 600.0));
  // Let the late result arrive and bounce off the erased session.
  simulator.run();

  EXPECT_EQ(coordinator.engine().workers_timed_out(), 1u);
  EXPECT_EQ(coordinator.engine().results_from_workers(), 0u);
  EXPECT_EQ(coordinator.engine().duplicates_ignored(), 0u);
  EXPECT_EQ(worker.results_sent(), 1u);  // sent, never aggregated
  expect_complete_and_identical(coordinator, spec, eval_point);
}

TEST(ProtocolSim, DuplicateResultsAfterRetransmitAreDedupedExactly) {
  Simulator simulator;
  Rng rng(12);
  StreamNetwork network(simulator, rng);
  const sweep::SweepSpec spec = make_spec();
  SimCoordinator coordinator(simulator, network, spec,
                             coordinator_options());
  SimWorkerOptions stuttering = pinned_worker(spec, "stuttering");
  stuttering.duplicate_results = true;  // every result sent twice
  SimWorker worker(simulator, network, stuttering);

  ASSERT_TRUE(
      simulator.run_until([&] { return coordinator.done(); }, 600.0));
  simulator.run();

  EXPECT_EQ(worker.state(), SimWorker::State::kDone);
  // One duplicate per point except the last: the first copy of the final
  // result completes the sweep, so its retransmission arrives after the
  // bye closed the session and is dropped at the transport instead.
  EXPECT_EQ(coordinator.engine().duplicates_ignored(),
            spec.point_count() - 1);
  // Dedup must be exact, not approximate: identical single-counted stats.
  expect_complete_and_identical(coordinator, spec, eval_point);
}

TEST(ProtocolSim, GarbageAndTruncatedFramesDropThePeerNotTheSweep) {
  Simulator simulator;
  Rng rng(13);
  StreamNetwork network(simulator, rng);
  const sweep::SweepSpec spec = make_spec();
  SimCoordinator coordinator(simulator, network, spec,
                             coordinator_options());

  // Hand-driven client 1: valid hello, then a complete garbage frame.
  // The engine must kill the session (protocol error) and forfeit its
  // in-flight point.
  net::Hello hello;
  hello.node = "garbler";
  hello.sweep = spec.name();
  hello.fingerprint = spec.fingerprint();
  const auto garbler =
      network.connect([](StreamNetwork::ConnId, const std::string&) {},
                      [](StreamNetwork::ConnId) {});
  network.send_to_server(garbler, net::encode_hello(hello));
  simulator.schedule(0.1, [&, garbler] {
    network.send_to_server(garbler, "this is not a protocol frame\n");
  });

  // Hand-driven client 2: valid hello, then a result frame truncated by
  // death (no terminator, connection closes).  The partial line must be
  // discarded with the session, never decoded.
  hello.node = "truncator";
  const auto truncator =
      network.connect([](StreamNetwork::ConnId, const std::string&) {},
                      [](StreamNetwork::ConnId) {});
  network.send_to_server(truncator, net::encode_hello(hello));
  simulator.schedule(0.15, [&, truncator] {
    network.send_to_server(truncator, "{\"sweep\": \"sim_proto_grid\", \"c");
    network.close(truncator, /*from_server=*/false);
  });

  SimWorkerOptions healthy = pinned_worker(spec, "healthy");
  healthy.join_time = 0.05;
  SimWorker survivor(simulator, network, healthy);

  ASSERT_TRUE(
      simulator.run_until([&] { return coordinator.done(); }, 600.0));
  simulator.run();

  EXPECT_EQ(coordinator.engine().protocol_errors(), 1u);  // the garbler
  EXPECT_EQ(survivor.state(), SimWorker::State::kDone);
  EXPECT_EQ(survivor.results_sent(), spec.point_count());
  expect_complete_and_identical(coordinator, spec, eval_point);
}

TEST(ProtocolSim, VersionMismatchFailsFastWithBothVersionsNamed) {
  Simulator simulator;
  Rng rng(14);
  StreamNetwork network(simulator, rng);
  const sweep::SweepSpec spec = make_spec();
  SimCoordinatorOptions options = coordinator_options();
  options.local_fallback = true;
  options.local_eval = eval_point;
  SimCoordinator coordinator(simulator, network, spec, options);
  SimWorkerOptions outdated = pinned_worker(spec, "outdated");
  outdated.version = net::kProtocolVersion + 41;
  SimWorker worker(simulator, network, outdated);

  ASSERT_TRUE(
      simulator.run_until([&] { return coordinator.done(); }, 600.0));
  simulator.run();

  EXPECT_EQ(worker.state(), SimWorker::State::kDeclined);
  EXPECT_FALSE(worker.retry_suggested());  // fatal, not worth retrying
  EXPECT_NE(worker.error().find("protocol version mismatch"),
            std::string::npos);
  EXPECT_NE(worker.error().find(
                "v" + std::to_string(net::kProtocolVersion)),
            std::string::npos);
  EXPECT_NE(worker.error().find(
                "v" + std::to_string(net::kProtocolVersion + 41)),
            std::string::npos);
  expect_complete_and_identical(coordinator, spec, eval_point);
}

TEST(ProtocolSim, LocalFallbackAloneCompletesTheSweep) {
  Simulator simulator;
  Rng rng(18);
  StreamNetwork network(simulator, rng);
  const sweep::SweepSpec spec = make_spec();
  SimCoordinatorOptions options = coordinator_options();
  options.local_fallback = true;
  options.local_eval = eval_point;
  SimCoordinator coordinator(simulator, network, spec, options);

  ASSERT_TRUE(
      simulator.run_until([&] { return coordinator.done(); }, 600.0));
  EXPECT_EQ(coordinator.engine().results_from_workers(), 0u);
  expect_complete_and_identical(coordinator, spec, eval_point);
}

TEST(ProtocolSim, HeartbeatsKeepASlowEvaluationAlive) {
  Simulator simulator;
  Rng rng(19);
  StreamNetwork network(simulator, rng);
  sweep::SweepSpec spec("sim_slow", 3);
  spec.add_block("alpha", {3});
  spec.set_ps({0.25, 0.5});  // 2 points
  SimCoordinatorOptions options = coordinator_options();
  options.engine.worker_timeout = 1.0;
  SimCoordinator coordinator(simulator, network, spec, options);
  // Each evaluation is 3x the liveness timeout; only the heartbeats stand
  // between this worker and the axe.
  SimWorkerOptions slow = pinned_worker(spec, "slow");
  slow.eval_seconds = 3.0;
  SimWorker worker(simulator, network, slow);

  ASSERT_TRUE(
      simulator.run_until([&] { return coordinator.done(); }, 600.0));
  simulator.run();

  EXPECT_EQ(worker.state(), SimWorker::State::kDone);
  EXPECT_EQ(coordinator.engine().workers_timed_out(), 0u);
  EXPECT_EQ(coordinator.engine().results_from_workers(), spec.point_count());
  expect_complete_and_identical(coordinator, spec, eval_point);
}

TEST(ProtocolSim, WithoutHeartbeatsTheSlowWorkerIsKilled) {
  Simulator simulator;
  Rng rng(20);
  StreamNetwork network(simulator, rng);
  sweep::SweepSpec spec("sim_slow", 3);
  spec.add_block("alpha", {3});
  spec.set_ps({0.25, 0.5});
  SimCoordinatorOptions options = coordinator_options();
  options.engine.worker_timeout = 1.0;
  options.local_fallback = true;
  options.local_eval = eval_point;
  SimCoordinator coordinator(simulator, network, spec, options);
  SimWorkerOptions mute = pinned_worker(spec, "mute");
  mute.eval_seconds = 3.0;
  mute.send_heartbeats = false;
  SimWorker worker(simulator, network, mute);

  ASSERT_TRUE(
      simulator.run_until([&] { return coordinator.done(); }, 600.0));
  simulator.run();

  EXPECT_GE(coordinator.engine().workers_timed_out(), 1u);
  expect_complete_and_identical(coordinator, spec, eval_point);
}

TEST(ProtocolSim, QuarantineSparesTheOtherWorkersPoints) {
  Simulator simulator;
  Rng rng(26);
  StreamNetwork network(simulator, rng);
  const sweep::SweepSpec spec = make_spec();
  SimCoordinatorOptions options = coordinator_options();
  options.engine.max_point_retries = 0;  // first forfeit quarantines
  SimCoordinator coordinator(simulator, network, spec, options);
  // The healthy worker joins first and is mid-evaluation when the dying
  // one takes the next point down with it.
  SimWorkerOptions healthy = pinned_worker(spec, "healthy");
  healthy.eval_seconds = 0.5;
  SimWorker survivor(simulator, network, healthy);
  SimWorkerOptions dying = pinned_worker(spec, "dying");
  dying.die_holding = 1;
  dying.join_time = 0.2;
  SimWorker casualty(simulator, network, dying);

  ASSERT_TRUE(
      simulator.run_until([&] { return coordinator.done(); }, 600.0));
  simulator.run();

  EXPECT_EQ(coordinator.engine().points_quarantined(), 1u);
  ASSERT_EQ(coordinator.quarantined().size(), 1u);
  const auto [poisoned, attempts] = *coordinator.quarantined().begin();
  EXPECT_EQ(attempts, 1u);
  EXPECT_EQ(survivor.state(), SimWorker::State::kDone);
  // Every point but the quarantined one completed, bit-identical.
  EXPECT_EQ(coordinator.results().size(), spec.point_count() - 1);
  EXPECT_EQ(coordinator.results().count(poisoned), 0u);
  for (const auto& [index, stats] : coordinator.results())
    EXPECT_EQ(stats.mean(), eval_point(spec.expand()[index]).mean());
}

}  // namespace
}  // namespace qps::sim
