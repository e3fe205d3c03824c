#include "core/net/socket_sweep.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "core/fault/fault.h"
#include "core/net/framing.h"
#include "core/net/worker.h"
#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "util/backoff.h"
#include "util/fsio.h"
#include "util/require.h"

namespace qps::net {

namespace {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Background heartbeat: keeps the coordinator's liveness timer fed while
/// a long evaluation holds the data path silent.  Writes share
/// `write_mutex` with result sends so frames never interleave.
class HeartbeatThread {
 public:
  HeartbeatThread(TcpStream& stream, std::mutex& write_mutex,
                  double interval_seconds)
      : stream_(stream), write_mutex_(write_mutex) {
    if (interval_seconds <= 0) return;
    thread_ = std::thread([this, interval_seconds] {
      std::unique_lock<std::mutex> lock(mutex_);
      const auto interval = std::chrono::duration<double>(interval_seconds);
      while (!cv_.wait_for(lock, interval, [this] { return stop_; })) {
        try {
          // Injection site for heartbeat loss/delay: a delay action here
          // widens the coordinator's observed heartbeat gap, an error
          // action swallows the beat entirely.
          QPS_FAULT_POINT("net/worker_heartbeat");
        } catch (const fault::InjectedFault&) {
          continue;  // this heartbeat is lost; the next round retries
        }
        std::lock_guard<std::mutex> write_lock(write_mutex_);
        // A failed heartbeat means the peer is gone; the read loop will
        // notice on its own, so the failure needs no handling here.
        stream_.send_all(encode_heartbeat());
        static obs::Counter& heartbeats_sent =
            obs::MetricsRegistry::instance().counter("net/heartbeats_sent");
        heartbeats_sent.increment();
      }
    });
  }

  ~HeartbeatThread() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  TcpStream& stream_;
  std::mutex& write_mutex_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

bool parse_host_port(const std::string& text, std::string& host,
                     std::uint16_t& port) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == text.size())
    return false;
  unsigned long value = 0;
  for (std::size_t i = colon + 1; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    value = value * 10 + static_cast<unsigned long>(text[i] - '0');
    if (value > 65535) return false;
  }
  host = text.substr(0, colon);
  port = static_cast<std::uint16_t>(value);
  return true;
}

namespace {

/// SweepRunner's local worker pool (make_local_pool_runner).  The engine
/// schedules and judges its children like any worker; the pool only keeps
/// `workers` of them alive while points wait and SIGKILLs and reaps each
/// child whose session the loop closes.  Respawns are capped at
/// workers x (max_point_retries + 1): a useful respawn follows a forfeit,
/// and a point forfeits at most that often before quarantine, so a crash
/// loop cannot fork forever.
class LocalPool {
 public:
  LocalPool(std::vector<std::string> command, std::size_t workers,
            std::size_t max_point_retries)
      : command_(std::move(command)),
        workers_(workers),
        spawn_budget_(workers * (max_point_retries + 2)) {}
  ~LocalPool() {
    for (const auto& [fd, pid] : children_) reap(pid);
  }
  LocalPool(const LocalPool&) = delete;
  LocalPool& operator=(const LocalPool&) = delete;

  /// Children to open as sessions: the first `workers`, then replacements
  /// while points wait and the budget lasts.
  std::vector<TcpStream> open(const JobServerEngine& engine) {
    static obs::Counter& respawned =
        obs::MetricsRegistry::instance().counter("sweep/workers_respawned");
    std::vector<TcpStream> opened;
    while (children_.size() < workers_ && engine.pending_count() > 0 &&
           spawn_budget_ > 0) {
      --spawn_budget_;
      TcpStream stream = spawn();
      if (!stream.valid()) {
        spawn_budget_ = 0;  // cannot fork: the local fallback takes over
        break;
      }
      if (spawned_++ >= workers_) respawned.increment();
      opened.push_back(std::move(stream));
    }
    return opened;
  }

  /// The loop is about to close `stream`.
  void closing(const TcpStream& stream) {
    const auto it = children_.find(stream.fd());
    if (it == children_.end()) return;
    reap(it->second);
    children_.erase(it);
  }

 private:
  TcpStream spawn() {
    // Both ends close on exec, so no child inherits a sibling's socket (a
    // stray copy would keep that sibling's EOF from ever arriving).
    int ends[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, ends) != 0)
      return TcpStream();
    std::vector<char*> argv;
    for (std::string& arg : command_) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child: lift the socket above fd 3 first so both dup2s really copy
      // it -- a copy is what clears close-on-exec.
      const int end = ::fcntl(ends[1], F_DUPFD_CLOEXEC, 4);
      if (end < 0 || ::dup2(end, STDIN_FILENO) < 0 || ::dup2(end, 3) < 0)
        ::_exit(127);
      const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      ::execvp(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(ends[1]);
    if (pid < 0) {
      ::close(ends[0]);
      return TcpStream();
    }
    children_.emplace(ends[0], pid);
    return TcpStream(ends[0]);
  }

  static void reap(pid_t pid) {
    ::kill(pid, SIGKILL);
    while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
  }

  std::vector<std::string> command_;
  std::size_t workers_;
  std::size_t spawn_budget_;  ///< The first `workers` plus the respawns.
  std::size_t spawned_ = 0;
  std::map<int, pid_t> children_;  ///< Parent-end fd -> child pid.
};

/// The coordinator loop behind run_socket_sweep() and the local worker
/// pool: accepts on `listener` and draws children from `pool`, either of
/// which may be null.
void coordinate(TcpListener* listener, LocalPool* pool,
                const std::vector<sweep::SweepPoint>& points,
                const std::string& sweep_name, std::uint64_t fingerprint,
                std::deque<std::size_t> pending,
                const sweep::PointEvaluator& local_eval,
                const sweep::RemoteRecord& record,
                const SocketCoordinatorOptions& options,
                const sweep::RemoteQuarantine& quarantine) {
  QPS_REQUIRE(listener == nullptr || listener->valid(),
              "job server needs a bound listener");
  QPS_REQUIRE(!options.local_fallback || static_cast<bool>(local_eval),
              "local fallback needs an evaluator");
  QPS_TRACE_SPAN("net/serve_sweep", "net");

  const std::size_t total = pending.size();
  JobServerEngine engine(points, sweep_name, fingerprint, std::move(pending),
                         options.engine);
  std::map<SessionId, TcpStream> streams;
  SessionId next_id = 1;
  std::size_t local_points = 0;
  util::Backoff accept_backoff(/*initial_seconds=*/0.01, /*max_seconds=*/1.0,
                               /*seed=*/fingerprint);

  const auto add_session = [&](TcpStream stream) {
    const SessionId id = next_id++;
    streams.emplace(id, std::move(stream));
    engine.on_open(id, monotonic_seconds());
  };
  const auto spawn_children = [&] {
    if (pool == nullptr) return;
    for (TcpStream& stream : pool->open(engine)) add_session(std::move(stream));
  };
  const auto drop = [&](std::map<SessionId, TcpStream>::iterator it) {
    if (pool != nullptr) pool->closing(it->second);
    it->second.close();
    streams.erase(it);
  };

  const auto flush = [&] {
    // Draining can cascade: a failed send closes a session, which forfeits
    // its point, which dispatches to another worker.
    for (;;) {
      const auto outbox = engine.take_outbox();
      if (outbox.empty()) return;
      for (const JobServerEngine::Send& send : outbox) {
        const auto it = streams.find(send.session);
        if (it == streams.end()) continue;
        bool hang_up = send.close_after;
        if (!send.bytes.empty() && !it->second.send_all(send.bytes)) {
          engine.on_close(send.session, monotonic_seconds());
          hang_up = true;
        }
        if (hang_up) drop(it);
      }
    }
  };
  std::size_t quarantined_count = 0;
  std::size_t rescued_count = 0;
  // One delivery round: everything the engine completed since the last
  // round goes to `record` in one call -- one journal commit, not one per
  // point.  The round is handed over before any last-resort evaluation
  // runs, so a long local evaluation never holds finished results back.
  const auto deliver = [&] {
    const sweep::ResultRound completed = engine.take_completed();
    if (!completed.empty()) record(completed);
    for (const auto& [index, attempts] : engine.take_quarantined()) {
      // With local fallback enabled the coordinator is allowed one
      // last-resort evaluation before declaring the point poison.  Without
      // it (tests proving workers computed everything) quarantine is final.
      if (options.local_fallback) {
        sweep::ResultRound rescued;
        try {
          QPS_TRACE_SPAN("sweep/point", "sweep");
          QPS_FAULT_POINT2("net/local_eval", points[index].id);
          rescued.emplace_back(index, local_eval(points[index]));
        } catch (const std::exception& e) {
          std::cerr << "sweep " << sweep_name << ": point "
                    << points[index].id
                    << " failed the local last resort too: " << e.what()
                    << "\n";
        }
        // Recorded outside the try: a failed journal write must surface
        // as such, not pass for a failed evaluation.
        if (!rescued.empty()) {
          record(rescued);
          ++rescued_count;
          continue;
        }
      }
      ++quarantined_count;
      if (quarantine) quarantine(index, attempts);
    }
  };

  spawn_children();

  while (!engine.done()) {
    flush();
    deliver();
    if (engine.done()) break;

    // Fallback waits for "no sessions at all", not just "no active
    // workers": a freshly accepted worker whose hello is still in flight
    // must get a chance to serve before the coordinator eats the grid
    // itself.  A connection that never completes its handshake releases
    // the brake via the handshake timeout.
    const bool fallback_ready =
        options.local_fallback && engine.session_count() == 0;

    std::vector<pollfd> fds;
    std::vector<SessionId> ids;
    if (listener != nullptr) fds.push_back({listener->fd(), POLLIN, 0});
    const std::size_t first_stream = fds.size();
    for (const auto& [id, stream] : streams) {
      ids.push_back(id);
      fds.push_back({stream.fd(), POLLIN, 0});
    }
    int timeout_ms = 200;
    if (fallback_ready) {
      timeout_ms = 0;  // local work is waiting; just drain ready events
    } else {
      const double deadline = engine.next_deadline();
      if (std::isfinite(deadline)) {
        const double wait = (deadline - monotonic_seconds()) * 1000.0;
        timeout_ms = wait < 10.0 ? 10 : (wait > 500.0 ? 500 : static_cast<int>(wait));
      }
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      QPS_CHECK(false, "poll failed in job server loop");
    }

    if (listener != nullptr && (fds[0].revents & POLLIN)) {
      bool accepted = false;
      try {
        QPS_FAULT_POINT("net/coordinator_accept");
        TcpStream stream = listener->accept();
        if (stream.valid()) {
          add_session(std::move(stream));
          accepted = true;
        }
      } catch (const fault::InjectedFault&) {
        // Injected accept failure: handled exactly like a real one below.
      }
      if (accepted) {
        accept_backoff.reset();
      } else {
        // A failing accept(2) with a readable listener would otherwise
        // spin the poll loop flat out; back off with jitter instead.
        std::this_thread::sleep_for(
            std::chrono::duration<double>(accept_backoff.next()));
      }
    }
    // Reads strictly before the timeout tick: bytes buffered while we were
    // busy (or blocked in a local evaluation) count as liveness.
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if ((fds[first_stream + k].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
        continue;
      const auto it = streams.find(ids[k]);
      if (it == streams.end()) continue;
      char chunk[4096];
      const long n = it->second.read_some(chunk, sizeof chunk);
      if (n > 0) {
        engine.on_bytes(ids[k], std::string_view(chunk,
                                                 static_cast<std::size_t>(n)),
                        monotonic_seconds());
      } else {
        engine.on_close(ids[k], monotonic_seconds());
        drop(it);
      }
    }
    engine.on_tick(monotonic_seconds());
    flush();
    deliver();

    // Replace dead children before deciding the coordinator must evaluate
    // locally.
    spawn_children();
    if (options.local_fallback && engine.session_count() == 0 &&
        !engine.done()) {
      if (const auto index = engine.take_local_point()) {
        {
          QPS_TRACE_SPAN("sweep/point", "sweep");
          // Coordinator-side injection site: a delay here holds the
          // coordinator mid-sweep (chaos scripts SIGKILL it there);
          // crash/error exercise the journal-replay resume.
          QPS_FAULT_POINT2("net/local_eval", points[*index].id);
          engine.complete_local(*index, local_eval(points[*index]));
        }
        ++local_points;
        deliver();
      }
    }
  }

  flush();    // broadcast the final byes
  deliver();  // nothing left, but keep the contract obvious

  // One grep-able accounting line per sweep: CI asserts work really went
  // through the socket path (and how much was recovered from faults).
  // Every number comes from the engine's counters -- which increment at
  // the same single site as their net/* metric mirrors -- and the line
  // goes out as one buffer through one write(2), so it can neither
  // disagree with --metrics-json nor interleave with other writers.
  std::ostringstream line;
  line << "sweep " << sweep_name << ": job server done, " << total
       << " point(s): " << engine.results_from_workers() << " from workers, "
       << local_points << " local, " << rescued_count << " rescued, "
       << quarantined_count << " quarantined, " << engine.duplicates_ignored()
       << " duplicate(s) ignored, " << engine.workers_timed_out()
       << " worker timeout(s), " << engine.deadline_forfeits()
       << " deadline forfeit(s), " << engine.protocol_errors()
       << " protocol error(s)\n";
  util::write_all(STDERR_FILENO, line.str());
  if (pool != nullptr) {
    // The local pool's own counters, mirrored from the engine's.
    obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
    registry.counter("sweep/worker_dispatches").add(engine.dispatches());
    registry.counter("sweep/points_requeued").add(engine.requeues());
  }
}

}  // namespace

void run_socket_sweep(TcpListener& listener,
                      const std::vector<sweep::SweepPoint>& points,
                      const std::string& sweep_name, std::uint64_t fingerprint,
                      std::deque<std::size_t> pending,
                      const sweep::PointEvaluator& local_eval,
                      const sweep::RemoteRecord& record,
                      const SocketCoordinatorOptions& options,
                      const sweep::RemoteQuarantine& quarantine) {
  coordinate(&listener, nullptr, points, sweep_name, fingerprint,
             std::move(pending), local_eval, record, options, quarantine);
}

sweep::RemoteRunner make_socket_remote_runner(
    TcpListener* listener, SocketCoordinatorOptions options) {
  QPS_REQUIRE(listener != nullptr, "remote runner needs a listener");
  return [listener, options](const sweep::SweepSpec& spec,
                             const std::vector<sweep::SweepPoint>& points,
                             std::deque<std::size_t> pending,
                             const sweep::PointEvaluator& eval,
                             const sweep::RemoteRecord& record,
                             const sweep::RemoteQuarantine& quarantine) {
    run_socket_sweep(*listener, points, spec.name(), spec.fingerprint(),
                     std::move(pending), eval, record, options, quarantine);
  };
}

sweep::RemoteRunner make_local_pool_runner(std::vector<std::string> command,
                                           std::size_t workers,
                                           JobServerOptions engine) {
  return [command, workers, engine](
             const sweep::SweepSpec& spec,
             const std::vector<sweep::SweepPoint>& points,
             std::deque<std::size_t> pending,
             const sweep::PointEvaluator& eval,
             const sweep::RemoteRecord& record,
             const sweep::RemoteQuarantine& quarantine) {
    SocketCoordinatorOptions options;
    options.engine = engine;
    LocalPool pool(command, std::min(workers, pending.size()),
                   engine.max_point_retries);
    coordinate(nullptr, &pool, points, spec.name(), spec.fingerprint(),
               std::move(pending), eval, record, options, quarantine);
  };
}

namespace {

/// serve_connection() on a caller-owned engine, so serve_pinned_sweep()
/// can tell whether the coordinator ever accepted it.
ServeOutcome serve_session(TcpStream& stream, WorkerEngine& engine,
                           const std::vector<sweep::SweepPoint>& points,
                           const sweep::PointEvaluator& eval,
                           std::string* error, double idle_timeout_seconds) {
  const auto fail = [error](ServeOutcome outcome, const std::string& why) {
    if (error) *error = why;
    return outcome;
  };

  if (!stream.send_all(engine.hello_line()))
    return fail(ServeOutcome::kLost, "connection lost sending hello");

  std::mutex write_mutex;
  std::unique_ptr<HeartbeatThread> heartbeat;

  LineReassembler reassembler;
  char chunk[4096];
  for (;;) {
    if (idle_timeout_seconds > 0.0) {
      // A coordinator that goes completely silent (SIGSTOPped, wedged,
      // partitioned) would hold this worker in read(2) forever; bounded
      // patience turns that into a kLost and, through the caller's retry
      // budget, a reconnect -- which finds a restarted (--resume)
      // coordinator.
      pollfd pfd{stream.fd(), POLLIN, 0};
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(idle_timeout_seconds * 1000.0));
      if (ready == 0)
        return fail(ServeOutcome::kLost,
                    "coordinator silent past the idle timeout");
      if (ready < 0 && errno != EINTR)
        return fail(ServeOutcome::kLost, "poll failed waiting on coordinator");
      if (ready <= 0) continue;
    }
    const long n = stream.read_some(chunk, sizeof chunk);
    if (n <= 0)
      return fail(ServeOutcome::kLost, "connection lost mid-serve");
    std::vector<std::string> lines;
    if (!reassembler.feed(
            std::string_view(chunk, static_cast<std::size_t>(n)), lines))
      return fail(ServeOutcome::kLost, "oversized frame from coordinator");
    for (const std::string& line : lines) {
      const WorkerEngine::Event event = engine.on_line(line);
      switch (event.kind) {
        case WorkerEngine::Event::Kind::kNone:
          break;
        case WorkerEngine::Event::Kind::kAccepted:
          heartbeat = std::make_unique<HeartbeatThread>(
              stream, write_mutex, event.welcome.heartbeat_seconds);
          break;
        case WorkerEngine::Event::Kind::kDeclined:
          return fail(event.welcome.retry ? ServeOutcome::kDeclinedRetry
                                          : ServeOutcome::kDeclinedFatal,
                      event.welcome.error);
        case WorkerEngine::Event::Kind::kEvaluate: {
          if (event.index >= points.size())
            return fail(ServeOutcome::kLost, "request index out of range");
          RunningStats stats;
          try {
            QPS_TRACE_SPAN("sweep/point", "sweep");
            QPS_FAULT_POINT2("net/worker_eval", points[event.index].id);
            stats = eval(points[event.index]);
          } catch (const std::exception& e) {
            // A throwing evaluator (injected fault, BudgetExceeded, ...)
            // must not tear the worker down: drop the connection so the
            // coordinator forfeits the point to another worker or, past
            // its budget, quarantines it.
            return fail(ServeOutcome::kLost,
                        std::string("evaluator failed: ") + e.what());
          }
          const std::string reply =
              engine.result_line(points[event.index], stats);
          std::lock_guard<std::mutex> lock(write_mutex);
          if (!stream.send_all(reply))
            return fail(ServeOutcome::kLost, "connection lost sending result");
          break;
        }
        case WorkerEngine::Event::Kind::kBye:
          return ServeOutcome::kServedBye;
        case WorkerEngine::Event::Kind::kProtocolError:
          // Before the welcome the peer is a coordinator this worker cannot
          // talk to (another protocol version, or another sweep), and
          // retrying the same handshake cannot change that.
          return fail(engine.accepted() ? ServeOutcome::kLost
                                        : ServeOutcome::kDeclinedFatal,
                      event.error);
      }
    }
  }
}

Hello pinned_hello(const std::string& node, const sweep::SweepSpec& spec) {
  Hello hello;
  hello.node = node;
  hello.sweep = spec.name();
  hello.fingerprint = spec.fingerprint();
  return hello;
}

}  // namespace

ServeOutcome serve_connection(TcpStream& stream, const std::string& node,
                              const sweep::SweepSpec& spec,
                              const sweep::PointEvaluator& eval,
                              std::string* error,
                              double idle_timeout_seconds) {
  WorkerEngine engine(pinned_hello(node, spec));
  return serve_session(stream, engine, spec.expand(), eval, error,
                       idle_timeout_seconds);
}

ServeOutcome serve_pinned_sweep(const std::string& host, std::uint16_t port,
                                const sweep::SweepSpec& spec,
                                const sweep::PointEvaluator& eval,
                                const WorkerServeOptions& options,
                                bool* welcomed) {
  const Hello hello = pinned_hello(options.node, spec);
  const std::vector<sweep::SweepPoint> points = spec.expand();

  int connect_failures = 0;
  int declines = 0;
  int losses = 0;
  for (;;) {
    TcpStream stream = TcpStream::connect(host, port);
    if (!stream.valid()) {
      if (++connect_failures > options.connect_retries)
        return ServeOutcome::kConnectFailed;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options.connect_retry_seconds));
      continue;
    }
    connect_failures = 0;

    std::string error;
    WorkerEngine engine(hello);
    const ServeOutcome outcome = serve_session(
        stream, engine, points, eval, &error, options.idle_timeout_seconds);
    if (engine.accepted() && welcomed != nullptr) *welcomed = true;
    switch (outcome) {
      case ServeOutcome::kDeclinedRetry:
        // A multi-sweep coordinator serves its sweeps in order; ours is
        // simply not up yet (or already finished -- the bounded budget
        // covers that case too).
        if (++declines > options.decline_retries) {
          std::cerr << "worker " << options.node << ": giving up on sweep "
                    << spec.name() << ": " << error << "\n";
          return outcome;
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(options.decline_retry_seconds));
        continue;
      case ServeOutcome::kLost:
        // The coordinator may just be restarting (checkpoint resume); a
        // fresh handshake is safe because duplicate results are ignored.
        if (++losses > options.lost_retries) {
          std::cerr << "worker " << options.node << ": lost sweep "
                    << spec.name() << ": " << error << "\n";
          return outcome;
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(options.connect_retry_seconds));
        continue;
      case ServeOutcome::kDeclinedFatal:
        std::cerr << "worker " << options.node << ": declined for sweep "
                  << spec.name() << ": " << error << "\n";
        return outcome;
      default:
        return outcome;
    }
  }
}

}  // namespace qps::net
