// The bench-level --connect worker (bench/bench_common.h): its exit codes
// and its flag surface.
//
// A worker that no coordinator ever welcomed did no work, so it must not
// exit 0 like a finished job: it exits 2 naming the address.  A worker
// that a coordinator declines for good (another protocol version) exits 3
// at once.  Each case runs the real parse_context + run_sweep path in a
// death-test child against a scripted loopback peer.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/net/messages.h"
#include "core/net/socket.h"
#include "core/sweep/sweep_spec.h"

namespace qps::bench {
namespace {

sweep::SweepSpec make_spec() {
  sweep::SweepSpec spec("bench_worker_grid", 9);
  spec.add_block("alpha", {3});
  spec.set_ps({0.25, 0.5});
  return spec;
}

RunningStats eval_point(const sweep::SweepPoint& point) {
  RunningStats stats;
  stats.add(point.p);
  return stats;
}

BenchContext context_for(std::vector<std::string> args) {
  args.insert(args.begin(), "bench_worker_test");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return parse_context(static_cast<int>(argv.size()), argv.data());
}

/// Reads one line (the worker's hello) so closing afterwards sends a clean
/// FIN rather than a reset that could discard what was sent first.
void read_hello(net::TcpStream& peer) {
  char c = 0;
  while (peer.read_some(&c, 1) == 1 && c != '\n') {
  }
}

/// Serves the sweep as a --connect worker of `listener`'s peer, then exits
/// normally -- so the exit code is whatever the at-exit checks make it.
[[noreturn]] void run_connect_worker(const net::TcpListener& listener) {
  const BenchContext ctx = context_for(
      {"--connect", "127.0.0.1:" + std::to_string(listener.port())});
  run_sweep(ctx, make_spec(), eval_point);
  std::exit(0);
}

TEST(BenchWorker, DialIsAnUnknownFlag) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(context_for({"--listen", "--dial=127.0.0.1:1"}),
              testing::ExitedWithCode(2), "unknown flag --dial");
}

TEST(BenchWorker, ConnectWorkerNoCoordinatorWelcomedExits2) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The peer takes every hello and hangs up without a welcome: each serve
  // ends lost, the reconnect budget runs out, and nothing was welcomed.
  EXPECT_EXIT(
      {
        net::TcpListener listener = net::TcpListener::bind(0);
        std::thread([&listener] {
          for (;;) {
            net::TcpStream peer = listener.accept();
            if (!peer.valid()) return;
            read_hello(peer);
          }
        }).detach();
        run_connect_worker(listener);
      },
      testing::ExitedWithCode(2),
      "--connect 127\\.0\\.0\\.1:[0-9]+: no coordinator welcomed");
}

TEST(BenchWorker, ConnectWorkerFatallyDeclinedExits3) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A v3 coordinator declines this worker's hello by version.
  const std::string ours = "v" + std::to_string(net::kProtocolVersion);
  EXPECT_EXIT(
      {
        net::TcpListener listener = net::TcpListener::bind(0);
        std::thread([&listener, &ours] {
          net::TcpStream peer = listener.accept();
          if (!peer.valid()) return;
          read_hello(peer);
          peer.send_all(
              "{\"ok\": false, \"qpsnet\": 3, \"error\": \"protocol version "
              "mismatch: coordinator speaks v3, worker speaks " + ours +
              "\", \"retry\": false}\n");
        }).detach();
        run_connect_worker(listener);
      },
      testing::ExitedWithCode(3),
      "protocol version mismatch: worker speaks " + ours +
          ", coordinator speaks v3");
}

}  // namespace
}  // namespace qps::bench
