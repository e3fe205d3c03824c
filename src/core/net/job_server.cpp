#include "core/net/job_server.h"

#include <algorithm>
#include <exception>
#include <limits>

#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "core/sweep/wire.h"
#include "util/require.h"

namespace qps::net {

namespace {

// Process-wide mirrors of the engine's per-instance counters.  Each event
// has exactly one increment site, shared with the per-instance bump, so
// the --metrics-json dump and the engine's own accounting (the per-sweep
// stderr line) can never disagree.
struct NetMetrics {
  obs::Counter& sessions_opened =
      obs::MetricsRegistry::instance().counter("net/sessions_opened");
  obs::Counter& sessions_closed =
      obs::MetricsRegistry::instance().counter("net/sessions_closed");
  obs::Counter& handshakes =
      obs::MetricsRegistry::instance().counter("net/handshakes");
  obs::Counter& dispatches =
      obs::MetricsRegistry::instance().counter("net/dispatches");
  obs::Counter& requeues =
      obs::MetricsRegistry::instance().counter("net/requeues");
  obs::Counter& duplicates_ignored =
      obs::MetricsRegistry::instance().counter("net/duplicates_ignored");
  obs::Counter& worker_timeouts =
      obs::MetricsRegistry::instance().counter("net/worker_timeouts");
  obs::Counter& protocol_errors =
      obs::MetricsRegistry::instance().counter("net/protocol_errors");
  obs::Counter& results_from_workers =
      obs::MetricsRegistry::instance().counter("net/results_from_workers");
  obs::Counter& points_quarantined =
      obs::MetricsRegistry::instance().counter("net/points_quarantined");
  obs::Counter& deadline_forfeits =
      obs::MetricsRegistry::instance().counter("net/deadline_forfeits");
  obs::Histogram& heartbeat_gap_us =
      obs::MetricsRegistry::instance().histogram("net/heartbeat_gap_us");

  static NetMetrics& get() {
    static NetMetrics metrics;
    return metrics;
  }
};

}  // namespace

JobServerEngine::JobServerEngine(const std::vector<sweep::SweepPoint>& points,
                                 std::string sweep_name,
                                 std::uint64_t fingerprint,
                                 std::deque<std::size_t> pending,
                                 JobServerOptions options)
    : points_(points),
      sweep_name_(std::move(sweep_name)),
      fingerprint_(fingerprint),
      options_(std::move(options)),
      pending_(std::move(pending)),
      done_(points.size(), 1),
      attempts_(points.size(), 0) {
  for (const std::size_t index : pending_) {
    QPS_REQUIRE(index < points_.size(), "pending index out of range");
    done_[index] = 0;
  }
  outstanding_ = pending_.size();
}

void JobServerEngine::on_open(SessionId session, double now) {
  Session& s = sessions_[session];
  s.opened_at = s.last_activity = now;
  NetMetrics::get().sessions_opened.increment();
  obs::TraceRecorder::instance().record_instant("net/session_open", "net");
}

void JobServerEngine::on_bytes(SessionId session, std::string_view bytes,
                               double now) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) return;  // already dropped: late bytes ignored
  it->second.last_activity = now;
  std::vector<std::string> lines;
  if (!it->second.lines.feed(bytes, lines)) {
    kill(session, "oversized frame");
    return;
  }
  for (const std::string& line : lines) {
    handle_line(session, line, now);
    // handle_line may have killed (erased) the session; later lines from
    // a dropped peer are noise.
    if (sessions_.find(session) == sessions_.end()) return;
  }
}

void JobServerEngine::on_close(SessionId session, double /*now*/) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  const bool busy = it->second.busy;
  const std::size_t in_flight = it->second.in_flight;
  sessions_.erase(it);
  NetMetrics::get().sessions_closed.increment();
  if (busy) forfeit(in_flight);
  dispatch();
}

void JobServerEngine::on_tick(double now) {
  std::vector<SessionId> expired;
  std::vector<SessionId> overdue;
  for (const auto& [id, s] : sessions_) {
    if (s.state == Session::State::kAwaitHello &&
        now - s.opened_at > options_.handshake_timeout)
      expired.push_back(id);
    else if (s.state == Session::State::kActive && s.busy &&
             now - s.last_activity > options_.worker_timeout)
      expired.push_back(id);
    else if (s.state == Session::State::kActive && s.busy &&
             options_.point_deadline > 0.0 &&
             now - s.dispatched_at > options_.point_deadline)
      overdue.push_back(id);
  }
  for (const SessionId id : expired) {
    ++workers_timed_out_;
    NetMetrics::get().worker_timeouts.increment();
    kill(id, "timed out");
  }
  // The point-deadline watchdog: the worker is live (its heartbeats kept
  // it off the timeout list) but has sat on one point too long.  Dropping
  // the session -- not just the point -- keeps its eventual stale result
  // from racing the reassignment, and forfeit() below decides requeue vs
  // quarantine.
  for (const SessionId id : overdue) {
    ++deadline_forfeits_;
    NetMetrics::get().deadline_forfeits.increment();
    kill(id, "point deadline exceeded");
  }
}

void JobServerEngine::handle_line(SessionId session, const std::string& line,
                                  double now) {
  JsonValue value;
  try {
    value = JsonValue::parse(line);
  } catch (const std::exception&) {
    kill(session, "malformed frame");
    return;
  }
  Session& s = sessions_.at(session);
  switch (classify_line(value)) {
    case LineKind::kHello:
      if (s.state != Session::State::kAwaitHello) {
        kill(session, "duplicate hello");
        return;
      }
      handle_hello(session, value);
      return;
    case LineKind::kResult:
      if (s.state != Session::State::kActive) {
        kill(session, "result before handshake");
        return;
      }
      handle_result(session, line);
      return;
    case LineKind::kHeartbeat:
      if (s.state != Session::State::kActive) {
        kill(session, "heartbeat before handshake");
        return;
      }
      // Observed heartbeat cadence per session: the driver clock gap
      // between consecutive heartbeats, in microseconds.  A worker under
      // load (or a congested path) shows up as gaps well above the
      // advertised interval, long before the timeout fires.
      if (s.last_heartbeat > 0.0 && now > s.last_heartbeat)
        NetMetrics::get().heartbeat_gap_us.record(
            static_cast<std::uint64_t>((now - s.last_heartbeat) * 1e6));
      s.last_heartbeat = now;
      return;  // liveness already refreshed in on_bytes
    default:
      kill(session, "unexpected frame");
      return;
  }
}

void JobServerEngine::handle_hello(SessionId session, const JsonValue& value) {
  const auto hello = decode_hello(value);
  if (!hello) {
    kill(session, "malformed hello");
    return;
  }
  if (hello->version != kProtocolVersion) {
    decline(session,
            "protocol version mismatch: coordinator speaks v" +
                std::to_string(kProtocolVersion) + ", worker '" + hello->node +
                "' speaks v" + std::to_string(hello->version),
            /*retry=*/false);
    return;
  }
  if (hello->sweep != sweep_name_ || hello->fingerprint != fingerprint_) {
    decline(session,
            "sweep '" + hello->sweep + "' is not active (serving '" +
                sweep_name_ + "')",
            /*retry=*/true);
    return;
  }

  Session& s = sessions_.at(session);
  s.state = Session::State::kActive;
  NetMetrics::get().handshakes.increment();
  obs::TraceRecorder::instance().record_instant("net/session_active", "net");
  Welcome welcome;
  welcome.ok = true;
  welcome.heartbeat_seconds = options_.heartbeat_interval;
  welcome.sweep = sweep_name_;
  welcome.fingerprint = fingerprint_;
  outbox_.push_back({session, encode_welcome(welcome), false});
  // A worker that joins after the last point was handed out (or after the
  // sweep finished entirely) would otherwise idle forever.
  if (done()) {
    outbox_.push_back({session, encode_bye(), true});
    sessions_.erase(session);
    NetMetrics::get().sessions_closed.increment();
    return;
  }
  dispatch();
}

void JobServerEngine::handle_result(SessionId session,
                                    const std::string& line) {
  const auto result = sweep::decode_result(line);
  if (!result || result->sweep != sweep_name_ ||
      result->fingerprint != fingerprint_ ||
      result->index >= points_.size() ||
      result->id != points_[result->index].id) {
    kill(session, "mismatched result");
    return;
  }
  Session& s = sessions_.at(session);
  if (s.busy && s.in_flight == result->index) s.busy = false;
  if (done_[result->index]) {
    // Duplicate delivery: a retransmission after a reconnect, or the
    // original worker of a reassigned point finishing late.  Results are
    // pure functions of the point, so dropping the copy is lossless.
    ++duplicates_ignored_;
    NetMetrics::get().duplicates_ignored.increment();
  } else {
    ++results_from_workers_;
    NetMetrics::get().results_from_workers.increment();
    record(result->index, result->stats);
  }
  if (!done()) dispatch();
}

void JobServerEngine::record(std::size_t index, const RunningStats& stats) {
  done_[index] = 1;
  --outstanding_;
  completed_.emplace_back(index, stats);
  // The point may still sit in pending_ (forfeited by one worker, then
  // completed by an unsolicited duplicate from another): never re-issue it.
  const auto it = std::find(pending_.begin(), pending_.end(), index);
  if (it != pending_.end()) pending_.erase(it);
  if (done()) broadcast_bye();
}

void JobServerEngine::kill(SessionId session, const std::string& reason) {
  (void)reason;
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  ++protocol_errors_;
  NetMetrics::get().protocol_errors.increment();
  const bool busy = it->second.busy;
  const std::size_t in_flight = it->second.in_flight;
  sessions_.erase(it);
  NetMetrics::get().sessions_closed.increment();
  outbox_.push_back({session, std::string(), true});
  if (busy) forfeit(in_flight);
  dispatch();
}

void JobServerEngine::forfeit(std::size_t index) {
  if (done_[index]) return;  // completed by a duplicate in the meantime
  if (++attempts_[index] > options_.max_point_retries) {
    done_[index] = 1;
    --outstanding_;
    quarantined_.emplace_back(index, attempts_[index]);
    ++points_quarantined_;
    NetMetrics::get().points_quarantined.increment();
    if (done()) broadcast_bye();
  } else {
    pending_.push_front(index);
    ++requeues_;
    NetMetrics::get().requeues.increment();
  }
}

void JobServerEngine::decline(SessionId session, const std::string& error,
                              bool retry) {
  Welcome welcome;
  welcome.ok = false;
  welcome.error = error;
  welcome.retry = retry;
  sessions_.erase(session);
  NetMetrics::get().sessions_closed.increment();
  outbox_.push_back({session, encode_welcome(welcome), true});
}

void JobServerEngine::dispatch() {
  for (auto& [id, s] : sessions_) {
    if (pending_.empty()) return;
    if (s.state != Session::State::kActive || s.busy) continue;
    s.busy = true;
    s.in_flight = pending_.front();
    s.dispatched_at = s.last_activity;
    pending_.pop_front();
    ++dispatches_;
    NetMetrics::get().dispatches.increment();
    outbox_.push_back({id, sweep::encode_request(s.in_flight), false});
  }
}

void JobServerEngine::broadcast_bye() {
  for (const auto& [id, s] : sessions_) {
    outbox_.push_back({id, encode_bye(), true});
    NetMetrics::get().sessions_closed.increment();
  }
  sessions_.clear();
}

std::vector<JobServerEngine::Send> JobServerEngine::take_outbox() {
  return std::exchange(outbox_, {});
}

std::vector<std::pair<std::size_t, RunningStats>>
JobServerEngine::take_completed() {
  return std::exchange(completed_, {});
}

std::vector<std::pair<std::size_t, std::size_t>>
JobServerEngine::take_quarantined() {
  return std::exchange(quarantined_, {});
}

std::optional<std::size_t> JobServerEngine::take_local_point() {
  if (pending_.empty()) return std::nullopt;
  const std::size_t index = pending_.front();
  pending_.pop_front();
  return index;
}

void JobServerEngine::complete_local(std::size_t index,
                                     const RunningStats& stats) {
  if (done_[index]) return;  // a worker's duplicate beat us to it
  record(index, stats);
}

double JobServerEngine::next_deadline() const {
  double deadline = std::numeric_limits<double>::infinity();
  for (const auto& [id, s] : sessions_) {
    if (s.state == Session::State::kAwaitHello) {
      deadline =
          std::min(deadline, s.opened_at + options_.handshake_timeout);
    } else if (s.busy) {
      deadline = std::min(deadline, s.last_activity + options_.worker_timeout);
      if (options_.point_deadline > 0.0)
        deadline =
            std::min(deadline, s.dispatched_at + options_.point_deadline);
    }
  }
  return deadline;
}

}  // namespace qps::net
