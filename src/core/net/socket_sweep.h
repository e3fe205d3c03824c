// Socket drivers for the sweep worker protocol.
//
// Both protocol state machines are transport-free (core/net/job_server.h,
// core/net/worker.h); this header binds them to real sockets:
//
//  * run_socket_sweep() is the coordinator's job-server loop -- the only
//    one: it polls the listener (if any) and every worker connection,
//    feeds the JobServerEngine (reads strictly before timeout ticks, so a
//    hello buffered during a long local evaluation always beats the
//    handshake axe), flushes its outbox, and -- when no worker is serving
//    and local fallback is enabled -- evaluates pending points in-process
//    so the sweep terminates even if every worker declines or dies.  TCP
//    workers arrive through the listener.  After each pass over its
//    sockets the loop delivers one round: every result the engine
//    completed since the last round goes to the record sink in a single
//    call, which SweepRunner journals with one write(2) per result
//    and one fdatasync per round -- before the loop polls again.
//  * make_local_pool_runner() runs the same loop without a listener over
//    SweepRunner's local worker children, one socketpair each.
//  * serve_connection() / serve_pinned_sweep() are the worker's blocking
//    side: hello, welcome, evaluate-request loop until bye, with a
//    background heartbeat thread keeping the coordinator's liveness timer
//    fed through long evaluations.  The worker serves the points of its
//    own spec with its own evaluator; that is the only kind of worker.
//  * make_socket_remote_runner() packages the coordinator loop as the
//    sweep::RemoteRunner hook SweepOptions accepts, which is how a bench
//    in --listen mode distributes its sweeps without the sweep layer
//    knowing sockets exist.
//
// Listeners bind port 0 by default and report the kernel-chosen port, so
// parallel CI jobs never race for a fixed port.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/net/job_server.h"
#include "core/net/socket.h"
#include "core/sweep/sweep_runner.h"

namespace qps::net {

struct SocketCoordinatorOptions {
  JobServerOptions engine;
  /// Evaluate pending points in-process while no worker is serving, so a
  /// sweep finishes even when no worker ever connects; tests disable it
  /// to prove workers computed everything.
  bool local_fallback = true;
};

/// Splits "host:port"; false on malformed input.
bool parse_host_port(const std::string& text, std::string& host,
                     std::uint16_t& port);

/// Coordinator loop: drives the job-server engine over `listener` until
/// every pending index has a result or is quarantined, invoking `record`
/// once per delivery round with the points completed in it (each index in
/// exactly one round).  A point that burns its retry budget gets one local
/// last-resort evaluation, delivered as its own round, when
/// options.local_fallback is enabled; only if that throws too (or fallback
/// is disabled) is `quarantine` (when non-null) invoked for it.
/// `local_eval` is used only for local fallback and the last resort, and
/// only when options.local_fallback.
void run_socket_sweep(TcpListener& listener,
                      const std::vector<sweep::SweepPoint>& points,
                      const std::string& sweep_name, std::uint64_t fingerprint,
                      std::deque<std::size_t> pending,
                      const sweep::PointEvaluator& local_eval,
                      const sweep::RemoteRecord& record,
                      const SocketCoordinatorOptions& options,
                      const sweep::RemoteQuarantine& quarantine = nullptr);

/// The coordinator loop as a sweep-layer hook.  `listener` must outlive
/// the returned runner.
sweep::RemoteRunner make_socket_remote_runner(TcpListener* listener,
                                              SocketCoordinatorOptions options);

/// SweepRunner's `workers >= 1` path as a sweep-layer hook: per sweep,
/// `workers` local children of `command` (the bench re-invoked in --worker
/// mode, entering SweepRunner::serve) -- each with its end of a
/// socketpair(AF_UNIX, SOCK_STREAM) on fds 0 and 3 and stdout discarded --
/// driven as pinned sessions by the coordinator loop, with no listener and
/// local fallback on.  Dispatch, retries, quarantine and the point
/// deadline are the engine's; children whose session closes are SIGKILLed
/// and reaped, and replaced while points wait, up to
/// workers x (max_point_retries + 1) respawns.
sweep::RemoteRunner make_local_pool_runner(std::vector<std::string> command,
                                           std::size_t workers,
                                           JobServerOptions engine);

enum class ServeOutcome {
  kServedBye,      ///< Clean completion: coordinator said bye.
  kDeclinedRetry,  ///< Declined, worth retrying (sweep not active yet).
  kDeclinedFatal,  ///< Declined for good: version mismatch, or a handshake
                   ///< this worker cannot understand.
  kLost,           ///< Connection or protocol failure mid-serve.
  kConnectFailed,  ///< Connect retries exhausted.
};

struct WorkerServeOptions {
  /// Diagnostic worker name carried in the hello (hostname:pid style).
  std::string node = "worker";
  /// Connect retry budget (the coordinator may not be listening yet).
  int connect_retries = 25;
  double connect_retry_seconds = 0.2;
  /// Retryable-decline budget (a multi-sweep bench's coordinator serves
  /// sweeps in order; a worker ahead of it must wait its turn).
  int decline_retries = 150;
  double decline_retry_seconds = 0.2;
  /// Reconnect budget after a mid-serve connection loss.
  int lost_retries = 3;
  /// Seconds of total coordinator silence after which the worker abandons
  /// the connection as kLost and (through lost_retries) reconnects: a
  /// worker blocked in read(2) on a SIGSTOPped or wedged coordinator
  /// would otherwise wait forever.  0 = wait forever.
  double idle_timeout_seconds = 0.0;
};

/// Serves one established connection to completion (blocking): hello
/// pinned to `spec`, then `spec`'s points evaluated with `eval` until bye.
/// On any decline/loss, `error` (when non-null) receives the reason.
ServeOutcome serve_connection(TcpStream& stream, const std::string& node,
                              const sweep::SweepSpec& spec,
                              const sweep::PointEvaluator& eval,
                              std::string* error = nullptr,
                              double idle_timeout_seconds = 0.0);

/// Connects to host:port and serves `spec` with `eval`, retrying failed
/// connects, retryable declines, and lost connections per `options`.
/// `welcomed` (when non-null) is set to true once any connection is
/// accepted, and never reset.
ServeOutcome serve_pinned_sweep(const std::string& host, std::uint16_t port,
                                const sweep::SweepSpec& spec,
                                const sweep::PointEvaluator& eval,
                                const WorkerServeOptions& options,
                                bool* welcomed = nullptr);

}  // namespace qps::net
