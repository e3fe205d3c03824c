// Coordinator-side protocol state machine for the socket job-server mode.
//
// JobServerEngine is deliberately transport-free: it consumes connection
// events (open / bytes / close / clock tick) tagged with an opaque
// SessionId and produces outgoing frames plus completed point results.
// The same machine therefore runs over real TCP sockets and over the
// socketpairs of SweepRunner's local worker pool (both driven by
// core/net/socket_sweep.h), and over the in-process simulated network
// (the test suite's harness in tests/support/), which is how slow joiners, mid-sweep worker
// death, partitions, duplicate deliveries, and truncated frames get full
// ctest coverage without a real host pair.
//
// Every worker is pinned: its hello names the (sweep, fingerprint) it
// rebuilt from its own flags, and a session whose pin is not the active
// sweep is declined (retryably -- a multi-sweep coordinator may reach that
// sweep later).  A hello of another protocol version is declined fatally
// with both versions named.
//
// Scheduling is dynamic work stealing:
//
//  * Points are handed out one at a time; a worker gets its next point
//    the moment its previous result lands, so a slow point never stalls
//    the grid.
//  * Workers may join at any moment mid-sweep (slow joiners): a session
//    becomes eligible the instant its handshake completes.
//  * A session that dies, times out (no bytes for worker_timeout while
//    busy -- heartbeats count), violates the protocol, or feeds garbage
//    forfeits only its in-flight point, which is re-queued at the front
//    so index order among waiting points is preserved.
//  * A point forfeited more than max_point_retries times is quarantined:
//    marked done-without-result, surfaced through take_quarantined() and
//    the accounting counters, and never dispatched again -- a poison
//    point must not eat the fleet.  With point_deadline set, a worker
//    that heartbeats but holds one point past the deadline is killed and
//    the point forfeited the same way (liveness is not progress).
//  * Results are validated against (sweep name, fingerprint, point id)
//    and recorded at most once: a duplicate delivery -- retransmission
//    after a reconnect, or the original worker of a reassigned point
//    surfacing late -- is ignored, never double-aggregated.  Aggregation
//    is by point index and every evaluator is a pure function of the
//    point, so results are byte-identical no matter which worker (or how
//    many, or after how many retries) computed them.
//
// The engine never blocks and never touches a clock or a socket: `now` is
// whatever monotonic seconds the driver supplies (wall time for TCP,
// simulated time under sim/).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/net/framing.h"
#include "core/net/messages.h"
#include "core/sweep/sweep_spec.h"
#include "util/stats.h"

namespace qps::net {

using SessionId = std::uint64_t;

struct JobServerOptions {
  /// Seconds a new connection gets to produce its hello.
  double handshake_timeout = 10.0;
  /// Seconds of silence (no result, no heartbeat) after which a busy
  /// worker is declared dead and its point forfeited.
  double worker_timeout = 30.0;
  /// Heartbeat cadence advertised to workers in the welcome.
  double heartbeat_interval = 5.0;
  /// Per-point retry budget: a point forfeited (worker death, timeout,
  /// protocol kill, deadline) more than this many times is quarantined --
  /// completed-as-failed, reported via take_quarantined() and the
  /// accounting counters -- instead of requeued forever.
  std::size_t max_point_retries = 3;
  /// Per-point deadline watchdog: a busy worker that has held one point
  /// longer than this (heartbeats notwithstanding -- liveness is not
  /// progress) is killed and the point forfeited.  0 disables.
  double point_deadline = 0.0;
};

class JobServerEngine {
 public:
  /// `points` must outlive the engine; `pending` holds the indices still
  /// to be computed (everything else is treated as already done).
  JobServerEngine(const std::vector<sweep::SweepPoint>& points,
                  std::string sweep_name, std::uint64_t fingerprint,
                  std::deque<std::size_t> pending, JobServerOptions options);

  // -- events from the transport driver ----------------------------------
  void on_open(SessionId session, double now);
  void on_bytes(SessionId session, std::string_view bytes, double now);
  void on_close(SessionId session, double now);
  /// Deadline sweep: kills handshakes and busy workers past their
  /// timeouts.  Drivers call it after processing reads, so buffered bytes
  /// always count as liveness before the axe falls.
  void on_tick(double now);

  // -- outputs ------------------------------------------------------------
  /// One outgoing action: write `bytes` (may be empty) to the session,
  /// then close it when `close_after`.
  struct Send {
    SessionId session = 0;
    std::string bytes;
    bool close_after = false;
  };
  std::vector<Send> take_outbox();
  /// Validated, deduplicated results completed since the last call.
  std::vector<std::pair<std::size_t, RunningStats>> take_completed();
  /// Points quarantined since the last call, as (index, attempts) pairs.
  /// Quarantined points count as done for termination purposes but carry
  /// no result.
  std::vector<std::pair<std::size_t, std::size_t>> take_quarantined();

  // -- coordinator-local evaluation (fallback when no worker can serve) --
  /// Claims the next pending point for in-process evaluation; the engine
  /// stops offering it to workers.
  std::optional<std::size_t> take_local_point();
  void complete_local(std::size_t index, const RunningStats& stats);

  // -- progress and introspection ----------------------------------------
  bool done() const { return outstanding_ == 0; }
  /// Points waiting for a worker (neither in flight nor done).
  std::size_t pending_count() const { return pending_.size(); }
  /// Soonest timeout deadline, or +infinity with no armed timer; drivers
  /// derive their poll timeout from it.
  double next_deadline() const;
  std::size_t session_count() const { return sessions_.size(); }
  std::uint64_t protocol_errors() const { return protocol_errors_; }
  std::uint64_t duplicates_ignored() const { return duplicates_ignored_; }
  std::uint64_t workers_timed_out() const { return workers_timed_out_; }
  std::uint64_t results_from_workers() const { return results_from_workers_; }
  std::uint64_t dispatches() const { return dispatches_; }
  std::uint64_t requeues() const { return requeues_; }
  std::uint64_t points_quarantined() const { return points_quarantined_; }
  std::uint64_t deadline_forfeits() const { return deadline_forfeits_; }

 private:
  struct Session {
    enum class State { kAwaitHello, kActive };
    State state = State::kAwaitHello;
    LineReassembler lines;
    bool busy = false;
    std::size_t in_flight = 0;
    double opened_at = 0.0;
    double last_activity = 0.0;
    /// Driver time the in-flight point was dispatched; feeds the
    /// point-deadline watchdog.
    double dispatched_at = 0.0;
    /// Driver time of the previous heartbeat; feeds the observed
    /// heartbeat-gap histogram (0 until the first heartbeat lands).
    double last_heartbeat = 0.0;
  };

  void handle_line(SessionId session, const std::string& line, double now);
  void handle_hello(SessionId session, const JsonValue& value);
  void handle_result(SessionId session, const std::string& line);
  /// Drops the session, forfeiting (re-queueing) its in-flight point.
  void kill(SessionId session, const std::string& reason);
  /// Requeues a forfeited point, or quarantines it past its retry budget.
  void forfeit(std::size_t index);
  void decline(SessionId session, const std::string& error, bool retry);
  /// Hands pending points to idle active workers.
  void dispatch();
  void record(std::size_t index, const RunningStats& stats);
  /// On completion, waves every remaining session goodbye.
  void broadcast_bye();

  const std::vector<sweep::SweepPoint>& points_;
  std::string sweep_name_;
  std::uint64_t fingerprint_;
  JobServerOptions options_;

  std::deque<std::size_t> pending_;
  std::vector<char> done_;
  std::size_t outstanding_ = 0;
  /// Forfeit count per point index, feeding the quarantine budget.
  std::vector<std::size_t> attempts_;

  std::map<SessionId, Session> sessions_;
  std::vector<Send> outbox_;
  std::vector<std::pair<std::size_t, RunningStats>> completed_;
  std::vector<std::pair<std::size_t, std::size_t>> quarantined_;

  std::uint64_t protocol_errors_ = 0;
  std::uint64_t duplicates_ignored_ = 0;
  std::uint64_t workers_timed_out_ = 0;
  std::uint64_t results_from_workers_ = 0;
  std::uint64_t dispatches_ = 0;
  std::uint64_t requeues_ = 0;
  std::uint64_t points_quarantined_ = 0;
  std::uint64_t deadline_forfeits_ = 0;
};

}  // namespace qps::net
