// The socket job server over real TCP on loopback
// (core/net/socket_sweep.h): kernel-chosen ports, byte-identical
// aggregation for 1/2/4 concurrent socket workers, abrupt worker death,
// duplicate deliveries, and checkpoint/resume composing with distributed
// execution.
//
// Workers run as threads inside this process -- the same serve loop a
// bench runs under --connect, but joinable from a unit test (the CI
// distributed-smoke job covers the real multi-process topology).
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <chrono>

#include "core/fault/fault.h"
#include "core/net/framing.h"
#include "core/net/messages.h"
#include "core/net/socket.h"
#include "core/net/socket_sweep.h"
#include "core/net/worker.h"
#include "core/obs/metrics.h"
#include "core/sweep/sweep_runner.h"
#include "core/sweep/sweep_spec.h"
#include "util/rng.h"

namespace qps::net {
namespace {

sweep::SweepSpec make_spec() {
  sweep::SweepSpec spec("socket_test_grid", 55);
  spec.add_block("alpha", {3, 5}, {"R", "IR"});
  spec.add_block("beta", {10});
  spec.set_ps({0.25, 0.5});
  return spec;
}

RunningStats eval_point(const sweep::SweepPoint& point) {
  Rng rng = Rng::for_stream(point.seed, 31337);
  RunningStats stats;
  for (int i = 0; i < 100; ++i)
    stats.add(rng.uniform01() * (1.0 + point.p) +
              static_cast<double>(point.size));
  return stats;
}

void expect_identical(const std::map<std::size_t, RunningStats>& got,
                      const sweep::SweepSpec& spec) {
  const auto points = spec.expand();
  ASSERT_EQ(got.size(), points.size());
  for (const auto& point : points) {
    const auto it = got.find(point.index);
    ASSERT_NE(it, got.end()) << point.id;
    const RunningStats direct = eval_point(point);
    EXPECT_EQ(it->second.count(), direct.count()) << point.id;
    EXPECT_EQ(it->second.mean(), direct.mean()) << point.id;
    EXPECT_EQ(it->second.sum_squared_deviations(),
              direct.sum_squared_deviations())
        << point.id;
    EXPECT_EQ(it->second.min(), direct.min()) << point.id;
    EXPECT_EQ(it->second.max(), direct.max()) << point.id;
  }
}

/// Runs the job server for `spec` on `listener` in a joinable thread,
/// recording completions into `results` (read it only after join()).
std::thread coordinator_thread(TcpListener& listener,
                               const std::vector<sweep::SweepPoint>& points,
                               const sweep::SweepSpec& spec,
                               std::map<std::size_t, RunningStats>& results,
                               const SocketCoordinatorOptions& options) {
  return std::thread([&listener, &points, &spec, &results, options] {
    std::deque<std::size_t> pending;
    for (std::size_t i = 0; i < points.size(); ++i) pending.push_back(i);
    run_socket_sweep(
        listener, points, spec.name(), spec.fingerprint(), std::move(pending),
        eval_point,
        [&results](const sweep::ResultRound& round) {
          for (const auto& [index, stats] : round) results[index] = stats;
        },
        options);
  });
}

/// Blocking line read through a reassembler; nullopt on EOF or framing
/// failure.
std::optional<std::string> read_line(TcpStream& stream,
                                     LineReassembler& reassembler,
                                     std::vector<std::string>& queue) {
  while (queue.empty()) {
    char chunk[512];
    const long n = stream.read_some(chunk, sizeof chunk);
    if (n <= 0) return std::nullopt;
    if (!reassembler.feed(
            std::string_view(chunk, static_cast<std::size_t>(n)), queue))
      return std::nullopt;
  }
  std::string line = queue.front();
  queue.erase(queue.begin());
  return line;
}

TEST(SocketSweep, PortZeroYieldsRealDistinctPorts) {
  TcpListener first = TcpListener::bind(0);
  TcpListener second = TcpListener::bind(0);
  ASSERT_TRUE(first.valid());
  ASSERT_TRUE(second.valid());
  EXPECT_GT(first.port(), 0);
  EXPECT_GT(second.port(), 0);
  EXPECT_NE(first.port(), second.port());
  // And the reported port is genuinely connectable.
  TcpStream probe = TcpStream::connect("127.0.0.1", first.port());
  EXPECT_TRUE(probe.valid());
}

TEST(SocketSweep, ParseHostPort) {
  std::string host;
  std::uint16_t port = 0;
  EXPECT_TRUE(parse_host_port("127.0.0.1:8080", host, port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  EXPECT_TRUE(parse_host_port("example.com:1", host, port));
  EXPECT_EQ(host, "example.com");
  EXPECT_EQ(port, 1);
  EXPECT_FALSE(parse_host_port("no-port", host, port));
  EXPECT_FALSE(parse_host_port(":80", host, port));
  EXPECT_FALSE(parse_host_port("host:", host, port));
  EXPECT_FALSE(parse_host_port("host:99999", host, port));
  EXPECT_FALSE(parse_host_port("host:12ab", host, port));
}

TEST(SocketSweep, ByteIdenticalAcrossOneTwoAndFourSocketWorkers) {
  const sweep::SweepSpec spec = make_spec();
  const auto points = spec.expand();
  for (const std::size_t worker_count : {1u, 2u, 4u}) {
    TcpListener listener = TcpListener::bind(0);
    ASSERT_TRUE(listener.valid());
    SocketCoordinatorOptions options;
    options.local_fallback = false;  // every point must cross the wire
    std::map<std::size_t, RunningStats> results;
    std::thread coordinator =
        coordinator_thread(listener, points, spec, results, options);

    std::vector<ServeOutcome> outcomes(worker_count,
                                       ServeOutcome::kConnectFailed);
    // Each worker's first evaluation waits (bounded) until every worker
    // holds a point: otherwise the first workers can finish all ten points
    // before a slow-starting thread connects, and that late joiner parks
    // in the finished coordinator's backlog forever.
    std::atomic<std::size_t> joined{0};
    const auto rendezvous_eval = [&](const sweep::SweepPoint& point) {
      thread_local bool counted = false;
      if (!counted) {
        counted = true;
        ++joined;
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (joined.load() < worker_count &&
               std::chrono::steady_clock::now() < give_up)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return eval_point(point);
    };
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < worker_count; ++w) {
      workers.emplace_back([&, w] {
        WorkerServeOptions serve;
        serve.node = "test-worker-" + std::to_string(w);
        outcomes[w] = serve_pinned_sweep("127.0.0.1", listener.port(), spec,
                                         rendezvous_eval, serve);
      });
    }
    for (std::thread& worker : workers) worker.join();
    coordinator.join();

    for (std::size_t w = 0; w < worker_count; ++w)
      EXPECT_EQ(outcomes[w], ServeOutcome::kServedBye)
          << "worker " << w << " of " << worker_count;
    expect_identical(results, spec);
  }
}

TEST(SocketSweep, AbruptWorkerDeathForfeitsOnlyItsPoint) {
  const sweep::SweepSpec spec = make_spec();
  const auto points = spec.expand();
  TcpListener listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.valid());
  SocketCoordinatorOptions options;
  options.local_fallback = false;
  std::map<std::size_t, RunningStats> results;
  std::thread coordinator =
      coordinator_thread(listener, points, spec, results, options);

  // A worker that completes the handshake, receives a request, and dies
  // without a word (SIGKILL semantics: the kernel flushes an EOF).
  {
    TcpStream doomed = TcpStream::connect("127.0.0.1", listener.port());
    ASSERT_TRUE(doomed.valid());
    Hello hello;
    hello.node = "doomed";
    hello.sweep = spec.name();
    hello.fingerprint = spec.fingerprint();
    ASSERT_TRUE(doomed.send_all(encode_hello(hello)));
    LineReassembler reassembler;
    std::vector<std::string> queue;
    const auto welcome = read_line(doomed, reassembler, queue);
    ASSERT_TRUE(welcome.has_value());
    EXPECT_EQ(classify_line(JsonValue::parse(*welcome)), LineKind::kWelcome);
    const auto request = read_line(doomed, reassembler, queue);
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(classify_line(JsonValue::parse(*request)), LineKind::kRequest);
  }  // stream destructor: abrupt close while holding a point

  std::thread survivor([&] {
    WorkerServeOptions serve;
    serve.node = "survivor";
    serve_pinned_sweep("127.0.0.1", listener.port(), spec, eval_point, serve);
  });
  survivor.join();
  coordinator.join();
  expect_identical(results, spec);
}

TEST(SocketSweep, DuplicateResultsOverTcpAreDedupedExactly) {
  const sweep::SweepSpec spec = make_spec();
  const auto points = spec.expand();
  TcpListener listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.valid());
  SocketCoordinatorOptions options;
  options.local_fallback = false;
  std::map<std::size_t, RunningStats> results;
  std::thread coordinator =
      coordinator_thread(listener, points, spec, results, options);

  // Hand-driven worker that transmits every result twice, as a worker
  // retrying after a presumed loss would.
  TcpStream stream = TcpStream::connect("127.0.0.1", listener.port());
  ASSERT_TRUE(stream.valid());
  Hello hello;
  hello.node = "stutterer";
  hello.sweep = spec.name();
  hello.fingerprint = spec.fingerprint();
  WorkerEngine engine(hello);
  ASSERT_TRUE(stream.send_all(engine.hello_line()));
  LineReassembler reassembler;
  std::vector<std::string> queue;
  bool saw_bye = false;
  while (!saw_bye) {
    const auto line = read_line(stream, reassembler, queue);
    ASSERT_TRUE(line.has_value());
    const WorkerEngine::Event event = engine.on_line(*line);
    switch (event.kind) {
      case WorkerEngine::Event::Kind::kAccepted:
      case WorkerEngine::Event::Kind::kNone:
        break;
      case WorkerEngine::Event::Kind::kEvaluate: {
        ASSERT_LT(event.index, points.size());
        const std::string reply =
            engine.result_line(points[event.index],
                               eval_point(points[event.index]));
        ASSERT_TRUE(stream.send_all(reply));
        ASSERT_TRUE(stream.send_all(reply));  // the retransmission
        break;
      }
      case WorkerEngine::Event::Kind::kBye:
        saw_bye = true;
        break;
      default:
        FAIL() << "unexpected event on manual worker: " << event.error;
    }
  }
  coordinator.join();
  expect_identical(results, spec);  // single-counted despite the echoes
}

TEST(SocketSweep, CheckpointResumeComposesWithSocketWorkers) {
  const std::string journal = testing::TempDir() + "qps_net_resume_" +
                              std::to_string(::getpid()) + ".journal";
  std::remove(journal.c_str());

  // Baseline: the full sweep in-process, journaling every point.
  sweep::SweepOptions baseline_options;
  baseline_options.checkpoint_path = journal;
  sweep::SweepRunner baseline(make_spec(), baseline_options);
  const auto expected = baseline.run(eval_point);

  // "Kill" the coordinator mid-sweep: keep 4 result lines and a torn
  // fifth (a process dying mid-write leaves exactly this).
  std::vector<std::string> lines;
  {
    std::ifstream in(journal);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 5u);
  {
    std::ofstream out(journal, std::ios::trunc);
    for (int i = 0; i < 4; ++i) out << lines[i] << "\n";
    out << lines[4].substr(0, lines[4].size() / 2);  // no terminator
  }

  // Resume with the remaining points computed by a socket worker.
  TcpListener listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.valid());
  SocketCoordinatorOptions coordinator;
  coordinator.local_fallback = false;
  sweep::SweepOptions resume_options;
  resume_options.checkpoint_path = journal;
  resume_options.resume = true;
  resume_options.remote_runner =
      make_socket_remote_runner(&listener, coordinator);
  const sweep::SweepSpec spec = make_spec();
  std::thread worker([&] {
    WorkerServeOptions serve;
    serve.node = "resumer";
    serve_pinned_sweep("127.0.0.1", listener.port(), spec, eval_point, serve);
  });
  sweep::SweepRunner resumed(make_spec(), resume_options);
  const auto results = resumed.run(eval_point);
  worker.join();

  ASSERT_EQ(results.size(), expected.size());
  std::size_t revived = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].point.id, expected[i].point.id);
    EXPECT_EQ(results[i].stats.count(), expected[i].stats.count());
    EXPECT_EQ(results[i].stats.mean(), expected[i].stats.mean());
    EXPECT_EQ(results[i].stats.sum_squared_deviations(),
              expected[i].stats.sum_squared_deviations());
    EXPECT_EQ(results[i].stats.min(), expected[i].stats.min());
    EXPECT_EQ(results[i].stats.max(), expected[i].stats.max());
    if (results[i].from_checkpoint) ++revived;
  }
  // Exactly the 4 intact journal lines were revived; the torn fifth was
  // recomputed over the socket with everything else.
  EXPECT_EQ(revived, 4u);
  std::remove(journal.c_str());
}

TEST(SocketSweep, LocalFallbackCompletesWithNoWorkersAtAll) {
  const sweep::SweepSpec spec = make_spec();
  const auto points = spec.expand();
  TcpListener listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.valid());
  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < points.size(); ++i) pending.push_back(i);
  std::map<std::size_t, RunningStats> results;
  run_socket_sweep(
      listener, points, spec.name(), spec.fingerprint(), std::move(pending),
      eval_point,
      [&results](const sweep::ResultRound& round) {
        for (const auto& [index, stats] : round) results[index] = stats;
      },
      SocketCoordinatorOptions{});  // local_fallback defaults on
  expect_identical(results, spec);
}

TEST(SocketSweep, IdleTimeoutAbandonsASilentCoordinator) {
  // A coordinator that accepts the worker and then goes silent (wedged or
  // SIGSTOPped) must not hold the worker in read(2) forever: with an idle
  // timeout the serve ends as kLost, so the caller's retry budget reconnects.
  const sweep::SweepSpec spec = make_spec();
  TcpListener listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.valid());
  // Connect before the peer thread exists, so a failed assertion cannot
  // leave that thread blocked in accept().
  TcpStream stream = TcpStream::connect("127.0.0.1", listener.port());
  ASSERT_TRUE(stream.valid());
  std::thread silent([&listener, &spec] {
    TcpStream peer = listener.accept();
    if (!peer.valid()) return;
    Welcome welcome;
    welcome.ok = true;
    welcome.sweep = spec.name();
    welcome.fingerprint = spec.fingerprint();
    peer.send_all(encode_welcome(welcome));
    // Read (and discard) until the worker hangs up; never answer.
    char chunk[512];
    while (peer.read_some(chunk, sizeof chunk) > 0) {
    }
  });

  std::string error;
  const auto start = std::chrono::steady_clock::now();
  const ServeOutcome outcome =
      serve_connection(stream, "patient", spec, eval_point, &error,
                       /*idle_timeout_seconds=*/0.2);
  stream.close();  // releases the silent peer
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  silent.join();

  EXPECT_EQ(outcome, ServeOutcome::kLost);
  EXPECT_NE(error.find("idle timeout"), std::string::npos) << error;
  EXPECT_GE(elapsed, 0.2);
  EXPECT_LT(elapsed, 5.0);
}

TEST(SocketSweep, HeartbeatGapHistogramWidensUnderInjectedDelay) {
  if (!fault::kFaultCompiled)
    GTEST_SKIP() << "fault injection compiled out (QPS_FAULT=OFF)";
  // A delay fault on the worker's heartbeat thread stretches every beat
  // well past the advertised 50 ms cadence; the coordinator's observed
  // net/heartbeat_gap_us histogram must show the widened gaps -- that
  // histogram is how an operator sees congestion before any timeout.
  sweep::SweepSpec spec("socket_hb_grid", 77);
  spec.add_block("alpha", {3});
  spec.set_ps({0.25, 0.5});  // 2 points
  const auto points = spec.expand();
  obs::Histogram& gap =
      obs::MetricsRegistry::instance().histogram("net/heartbeat_gap_us");
  const std::uint64_t count_before = gap.count();
  const std::uint64_t sum_before = gap.sum();

  fault::configure("net/worker_heartbeat:delay:ms=120");
  TcpListener listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.valid());
  SocketCoordinatorOptions coordinator;
  coordinator.local_fallback = false;
  coordinator.engine.heartbeat_interval = 0.05;
  std::map<std::size_t, RunningStats> results;
  std::thread server =
      coordinator_thread(listener, points, spec, results, coordinator);
  // Each evaluation spans several heartbeat intervals, so beats flow while
  // the data path is silent.
  const auto slow_eval = [](const sweep::SweepPoint& p) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    return eval_point(p);
  };
  WorkerServeOptions serve;
  serve.node = "laggard";
  const ServeOutcome outcome = serve_pinned_sweep(
      "127.0.0.1", listener.port(), spec, slow_eval, serve);
  server.join();
  fault::clear();

  EXPECT_EQ(outcome, ServeOutcome::kServedBye);
  expect_identical(results, spec);
  const std::uint64_t recorded = gap.count() - count_before;
  ASSERT_GE(recorded, 1u);
  // Mean observed gap across the new samples: at least two full delayed
  // cadences above the configured 50 ms (50 + 120 = 170 ms nominal; 100 ms
  // leaves generous scheduling slack).
  const double mean_gap_us =
      static_cast<double>(gap.sum() - sum_before) /
      static_cast<double>(recorded);
  EXPECT_GT(mean_gap_us, 100000.0);
}

}  // namespace
}  // namespace qps::net
