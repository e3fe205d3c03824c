#include "tests/support/protocol_harness.h"

#include <deque>
#include <utility>

#include "core/net/messages.h"
#include "util/require.h"

namespace qps::sim {

namespace {

std::deque<std::size_t> all_points(std::size_t count) {
  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < count; ++i) pending.push_back(i);
  return pending;
}

}  // namespace

SimCoordinator::SimCoordinator(Simulator& simulator, StreamNetwork& network,
                               const sweep::SweepSpec& spec,
                               SimCoordinatorOptions options)
    : simulator_(&simulator),
      network_(&network),
      options_(std::move(options)),
      points_(spec.expand()),
      engine_(points_, spec.name(), spec.fingerprint(),
              all_points(points_.size()),
              options_.engine) {
  QPS_REQUIRE(!options_.local_fallback ||
                  static_cast<bool>(options_.local_eval),
              "local fallback needs an evaluator");
  network_->set_server(
      [this](StreamNetwork::ConnId conn) {
        engine_.on_open(conn, simulator_->now());
        pump();
      },
      [this](StreamNetwork::ConnId conn, const std::string& bytes) {
        engine_.on_bytes(conn, bytes, simulator_->now());
        pump();
      },
      [this](StreamNetwork::ConnId conn) {
        engine_.on_close(conn, simulator_->now());
        pump();
      });
  simulator_->schedule(options_.tick_interval, [this] { tick(); });
}

void SimCoordinator::tick() {
  if (engine_.done()) return;  // stop rescheduling: let the queue drain
  engine_.on_tick(simulator_->now());
  pump();
  simulator_->schedule(options_.tick_interval, [this] { tick(); });
}

void SimCoordinator::pump() {
  for (;;) {
    const auto outbox = engine_.take_outbox();
    for (const net::JobServerEngine::Send& send : outbox) {
      if (!send.bytes.empty()) network_->send_to_client(send.session,
                                                        send.bytes);
      if (send.close_after) network_->close(send.session,
                                            /*from_server=*/true);
    }
    for (const auto& [index, stats] : engine_.take_completed())
      results_[index] = stats;
    for (const auto& [index, attempts] : engine_.take_quarantined())
      quarantined_[index] = attempts;
    bool worked = false;
    // Same gate as the TCP driver: any session at all (even one still in
    // handshake) holds the local fallback off.
    if (options_.local_fallback && !engine_.done() &&
        engine_.session_count() == 0) {
      if (const auto index = engine_.take_local_point()) {
        engine_.complete_local(*index, options_.local_eval(points_[*index]));
        worked = true;
      }
    }
    if (outbox.empty() && !worked) return;
  }
}

SimWorker::SimWorker(Simulator& simulator, StreamNetwork& network,
                     SimWorkerOptions options)
    : simulator_(&simulator),
      network_(&network),
      options_(std::move(options)) {
  QPS_REQUIRE(options_.spec != nullptr && static_cast<bool>(options_.eval),
              "sim worker needs a spec and an evaluator");
  net::Hello hello;
  hello.version = options_.version;
  hello.node = options_.node;
  hello.sweep = options_.spec->name();
  hello.fingerprint = options_.spec->fingerprint();
  points_ = options_.spec->expand();
  engine_ = std::make_unique<net::WorkerEngine>(std::move(hello));
  simulator_->schedule_at(options_.join_time, [this] { join(); });
}

void SimWorker::join() {
  conn_ = network_->connect(
      [this](StreamNetwork::ConnId, const std::string& bytes) {
        on_data(bytes);
      },
      [this](StreamNetwork::ConnId) { on_remote_close(); });
  network_->send_to_server(conn_, engine_->hello_line());
}

void SimWorker::on_remote_close() {
  if (state_ == State::kJoining || state_ == State::kServing) {
    state_ = State::kLost;
    error_ = "coordinator closed the connection";
  }
}

void SimWorker::on_data(const std::string& bytes) {
  if (state_ != State::kJoining && state_ != State::kServing) return;
  std::vector<std::string> lines;
  if (!reassembler_.feed(bytes, lines)) {
    state_ = State::kLost;
    error_ = "oversized frame from coordinator";
    network_->close(conn_, /*from_server=*/false);
    return;
  }
  for (const std::string& line : lines) {
    const net::WorkerEngine::Event event = engine_->on_line(line);
    switch (event.kind) {
      case net::WorkerEngine::Event::Kind::kNone:
        break;
      case net::WorkerEngine::Event::Kind::kAccepted:
        state_ = State::kServing;
        heartbeat_interval_ = event.welcome.heartbeat_seconds;
        if (options_.send_heartbeats && heartbeat_interval_ > 0)
          simulator_->schedule(heartbeat_interval_, [this] { heartbeat(); });
        break;
      case net::WorkerEngine::Event::Kind::kDeclined:
        state_ = State::kDeclined;
        error_ = event.welcome.error;
        retry_suggested_ = event.welcome.retry;
        network_->close(conn_, /*from_server=*/false);
        return;
      case net::WorkerEngine::Event::Kind::kEvaluate: {
        ++requests_seen_;
        if (options_.die_holding > 0 &&
            requests_seen_ == options_.die_holding) {
          state_ = State::kDead;
          network_->close(conn_, /*from_server=*/false);
          return;
        }
        if (options_.vanish_holding > 0 &&
            requests_seen_ == options_.vanish_holding) {
          // Silent death: the connection stays up but nothing -- results,
          // heartbeats, even our eventual close -- ever reaches the
          // coordinator again.  Only its liveness timeout can save it.
          state_ = State::kDead;
          network_->to_server(conn_).partitioned = true;
          return;
        }
        if (event.index >= points_.size()) {
          state_ = State::kLost;
          error_ = "request index out of range";
          network_->close(conn_, /*from_server=*/false);
          return;
        }
        simulator_->schedule(options_.eval_seconds,
                             [this, index = event.index] {
                               deliver_result(index);
                             });
        break;
      }
      case net::WorkerEngine::Event::Kind::kBye:
        state_ = State::kDone;
        network_->close(conn_, /*from_server=*/false);
        return;
      case net::WorkerEngine::Event::Kind::kProtocolError:
        state_ = State::kLost;
        error_ = event.error;
        network_->close(conn_, /*from_server=*/false);
        return;
    }
  }
}

void SimWorker::deliver_result(std::size_t index) {
  if (state_ != State::kServing) return;
  const RunningStats stats = options_.eval(points_[index]);
  const std::string line = engine_->result_line(points_[index], stats);
  network_->send_to_server(conn_, line);
  if (options_.duplicate_results) network_->send_to_server(conn_, line);
  ++results_sent_;
}

void SimWorker::heartbeat() {
  if (state_ != State::kServing) return;
  network_->send_to_server(conn_, net::encode_heartbeat());
  simulator_->schedule(heartbeat_interval_, [this] { heartbeat(); });
}

}  // namespace qps::sim
