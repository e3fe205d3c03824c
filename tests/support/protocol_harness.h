// The socket worker protocol running over the simulated stream network.
//
// SimCoordinator and SimWorker bind the transport-free protocol engines
// (core/net/job_server.h, core/net/worker.h) to stream_network.h the
// same way core/net/socket_sweep.cpp binds them to TCP -- except the
// clock is the simulator's, latencies and partitions are programmable,
// and workers can be scripted to misbehave:
//
//  * join late (slow joiner picking up points mid-sweep),
//  * die holding a point (orderly close -> forfeit and reassignment),
//  * vanish holding a point (partition -> heartbeat timeout -> forfeit),
//  * retransmit every result (duplicate-delivery dedup),
//  * speak the wrong protocol version (fail-fast handshake).
//
// Every scenario is deterministic given the Rng seed, which makes the
// full distributed failure matrix ordinary ctest cases.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/net/framing.h"
#include "core/net/job_server.h"
#include "core/net/worker.h"
#include "core/sweep/sweep_runner.h"
#include "core/sweep/sweep_spec.h"
#include "tests/support/stream_network.h"

namespace qps::sim {

struct SimCoordinatorOptions {
  net::JobServerOptions engine;
  /// Cadence of the timeout sweep (the TCP driver's poll loop analogue).
  double tick_interval = 0.5;
  /// Evaluate points in-process while no worker is active (needs
  /// local_eval), as the TCP coordinator does by default.
  bool local_fallback = false;
  sweep::PointEvaluator local_eval;
};

/// The coordinator end: owns a JobServerEngine wired to the network's
/// server side plus a periodic tick.  Construct before any SimWorker
/// joins (it installs the server handlers).
class SimCoordinator {
 public:
  SimCoordinator(Simulator& simulator, StreamNetwork& network,
                 const sweep::SweepSpec& spec, SimCoordinatorOptions options);

  bool done() const { return engine_.done(); }
  /// Completed results keyed by point index.
  const std::map<std::size_t, RunningStats>& results() const {
    return results_;
  }
  /// Quarantined points keyed by index, with their forfeit counts.
  const std::map<std::size_t, std::size_t>& quarantined() const {
    return quarantined_;
  }
  const std::vector<sweep::SweepPoint>& points() const { return points_; }
  const net::JobServerEngine& engine() const { return engine_; }

 private:
  void pump();
  void tick();

  Simulator* simulator_;
  StreamNetwork* network_;
  SimCoordinatorOptions options_;
  std::vector<sweep::SweepPoint> points_;
  net::JobServerEngine engine_;
  std::map<std::size_t, RunningStats> results_;
  std::map<std::size_t, std::size_t> quarantined_;
};

struct SimWorkerOptions {
  std::string node = "sim-worker";
  double join_time = 0.0;
  /// Simulated duration of one point evaluation.
  double eval_seconds = 0.01;
  bool send_heartbeats = true;
  int version = net::kProtocolVersion;

  /// The sweep this worker pins in its hello and serves with `eval`
  /// (both required).
  const sweep::SweepSpec* spec = nullptr;
  sweep::PointEvaluator eval;

  /// Fault script: on receiving the k-th request (1-based), close the
  /// connection / go silent instead of answering; 0 disables.
  std::size_t die_holding = 0;
  std::size_t vanish_holding = 0;
  /// Send every result twice (retransmission after a presumed loss).
  bool duplicate_results = false;
};

class SimWorker {
 public:
  enum class State {
    kJoining,   ///< Not yet connected / awaiting welcome.
    kServing,   ///< Accepted; evaluating requests.
    kDone,      ///< Coordinator said bye.
    kDeclined,  ///< Welcome declined (see error()).
    kLost,      ///< Connection died or protocol violated mid-serve.
    kDead,      ///< Scripted death executed.
  };

  SimWorker(Simulator& simulator, StreamNetwork& network,
            SimWorkerOptions options);

  State state() const { return state_; }
  const std::string& error() const { return error_; }
  std::size_t results_sent() const { return results_sent_; }
  bool retry_suggested() const { return retry_suggested_; }
  /// Valid once joined (0 before); lets tests reach the fault knobs.
  StreamNetwork::ConnId conn() const { return conn_; }

 private:
  void join();
  void on_data(const std::string& bytes);
  void on_remote_close();
  void deliver_result(std::size_t index);
  void heartbeat();

  Simulator* simulator_;
  StreamNetwork* network_;
  SimWorkerOptions options_;
  StreamNetwork::ConnId conn_ = 0;
  std::unique_ptr<net::WorkerEngine> engine_;
  net::LineReassembler reassembler_;
  std::vector<sweep::SweepPoint> points_;
  double heartbeat_interval_ = 0.0;

  State state_ = State::kJoining;
  std::string error_;
  bool retry_suggested_ = false;
  std::size_t requests_seen_ = 0;
  std::size_t results_sent_ = 0;
};

}  // namespace qps::sim
