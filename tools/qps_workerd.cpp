// qps_workerd: generic remote sweep worker daemon.
//
// Unlike a bench re-invoked with --connect (which rebuilds its sweep from
// its own argv), this daemon knows nothing about any particular sweep: it
// advertises the standard evaluator registry (core/sweep/evaluators.h) in
// its hello, receives the serialized SweepSpec inside the coordinator's
// welcome, re-derives the spec fingerprint and refuses to serve on any
// disagreement, then evaluates requested points until bye.  Results are
// bit-identical to the coordinator computing the same points itself.
//
// Two modes:
//
//   qps_workerd --connect HOST:PORT[,HOST:PORT...]
//       Dials each coordinator in turn and serves whatever sweeps appear,
//       re-dialing between sweeps.  Failed dials back off exponentially
//       (--retry-seconds initial, doubling to --max-backoff-seconds, with
//       deterministic jitter) up to --max-connect-failures consecutive
//       failures per address.  Exits 0 once every address is exhausted
//       after having served at least one sweep (the coordinators are
//       gone -- the job is over); exits 2, naming each address, when some
//       coordinator was never reachable at all (a typo'd HOST:PORT must
//       not look like a completed job).
//
//   qps_workerd --listen[=PORT]
//       Binds (port 0 by default -- the kernel picks a free one), reports
//       "listening on 127.0.0.1:PORT" on stdout, and serves accepted
//       coordinator connections forever (a job server dials workers it
//       was given via --dial).
//
// With --metrics-json FILE the daemon dumps its metrics registry snapshot
// to FILE every --metrics-interval seconds (default 5), so an operator --
// or the distributed-smoke CI job -- can watch evaluations, heartbeats,
// and protocol counters while it serves.  --fault SPEC arms deterministic
// fault injection (grammar in core/fault/fault.h); the daemon's own site
// is "workerd/serve", hit once per accepted/dialed serving attempt.
// --idle-timeout S abandons a coordinator that goes completely silent for
// S seconds (a SIGSTOPped or wedged coordinator) and re-dials it, so the
// daemon finds a coordinator restarted with --resume.
//
// Besides its human-readable log lines the daemon emits structured
// one-line JSON events on stderr -- {"event": "quarantine"|"forfeit", ...}
// -- so an operator (or CI) can grep the fabric's decisions without
// parsing prose.
//
// A protocol-version mismatch is fatal (exit 3) with both versions named:
// mixed-version fleets must fail fast, not mis-parse frames.
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fault/fault.h"
#include "core/net/messages.h"
#include "core/net/socket.h"
#include "core/net/socket_sweep.h"
#include "core/net/worker.h"
#include "core/obs/metrics.h"
#include "core/sweep/evaluators.h"
#include "util/backoff.h"
#include "util/flags.h"
#include "util/json.h"

namespace {

std::string node_name() {
  char host[256] = "worker";
  ::gethostname(host, sizeof host - 1);
  return std::string(host) + ":" + std::to_string(::getpid());
}

/// One structured JSON event line on stderr, in a single write(2) so
/// concurrent log writers never interleave mid-line.
void emit_event(const std::string& json_object) {
  const std::string line = json_object + "\n";
  const char* data = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    const ssize_t n = ::write(STDERR_FILENO, data, left);
    if (n <= 0) return;
    data += static_cast<std::size_t>(n);
    left -= static_cast<std::size_t>(n);
  }
}

bool is_version_mismatch(const std::string& error) {
  return error.find("protocol version mismatch") != std::string::npos;
}

struct DaemonOptions {
  std::size_t dp_threads = 0;
  double retry_seconds = 0.5;       // initial re-dial backoff
  double max_backoff_seconds = 10;  // re-dial backoff cap
  int max_connect_failures = 20;    // consecutive failures per address
};

/// Serves one established connection; returns the outcome and exits the
/// process on a version mismatch.
qps::net::ServeOutcome serve_once(qps::net::TcpStream& stream,
                                  const qps::net::Hello& hello,
                                  const qps::net::SweepBinder& binder,
                                  const std::string& peer,
                                  const qps::net::ServeHooks& hooks) {
  std::string error;
  qps::net::ServeOutcome outcome;
  try {
    QPS_FAULT_POINT2("workerd/serve", peer);
    outcome = qps::net::serve_connection(stream, hello, binder, &error,
                                         hooks);
  } catch (const qps::fault::InjectedFault& e) {
    outcome = qps::net::ServeOutcome::kLost;
    error = e.what();
  }
  switch (outcome) {
    case qps::net::ServeOutcome::kServedBye:
      std::cerr << "qps_workerd: sweep complete (" << peer << ")\n";
      break;
    case qps::net::ServeOutcome::kDeclinedRetry:
      std::cerr << "qps_workerd: declined by " << peer << ": " << error
                << "\n";
      break;
    case qps::net::ServeOutcome::kDeclinedFatal:
      std::cerr << "qps_workerd: fatally declined by " << peer << ": "
                << error << "\n";
      if (is_version_mismatch(error)) std::exit(3);
      break;
    case qps::net::ServeOutcome::kLost:
      // Whatever point the daemon held is forfeit: the coordinator will
      // requeue (or quarantine) it.
      emit_event("{\"event\": \"forfeit\", \"peer\": " +
                 qps::json_quote(peer) + ", \"error\": " +
                 qps::json_quote(error) + "}");
      std::cerr << "qps_workerd: lost " << peer << ": " << error << "\n";
      if (is_version_mismatch(error)) std::exit(3);
      break;
    default:
      break;
  }
  return outcome;
}

int run_connect_mode(const std::vector<std::string>& addresses,
                     const qps::net::Hello& hello,
                     const qps::net::SweepBinder& binder,
                     const DaemonOptions& options,
                     const qps::net::ServeHooks& hooks) {
  std::vector<std::string> hosts(addresses.size());
  std::vector<std::uint16_t> ports(addresses.size());
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    if (!qps::net::parse_host_port(addresses[i], hosts[i], ports[i])) {
      std::cerr << "qps_workerd: bad --connect address '" << addresses[i]
                << "' (want HOST:PORT)\n";
      return 2;
    }
  }

  // Per-address state: consecutive-failure count against the budget, a
  // capped-exponential re-dial backoff (seeded per address so a fleet of
  // daemons pointed at one dead coordinator doesn't dial in lockstep), and
  // whether the address ever produced a connection at all.
  std::vector<int> failures(addresses.size(), 0);
  std::vector<bool> ever_connected(addresses.size(), false);
  std::vector<qps::util::Backoff> backoff;
  backoff.reserve(addresses.size());
  for (std::size_t i = 0; i < addresses.size(); ++i)
    backoff.emplace_back(options.retry_seconds, options.max_backoff_seconds,
                         static_cast<std::uint64_t>(::getpid()) * 1315423911u +
                             i);

  for (;;) {
    bool all_gone = true;
    bool served = false;
    double sleep_seconds = 0.0;
    for (std::size_t i = 0; i < addresses.size(); ++i) {
      if (failures[i] > options.max_connect_failures) continue;
      all_gone = false;
      qps::net::TcpStream stream =
          qps::net::TcpStream::connect(hosts[i], ports[i]);
      if (!stream.valid()) {
        ++failures[i];
        const double delay = backoff[i].next();
        if (failures[i] <= options.max_connect_failures &&
            (sleep_seconds == 0.0 || delay < sleep_seconds))
          sleep_seconds = delay;
        continue;
      }
      failures[i] = 0;
      ever_connected[i] = true;
      backoff[i].reset();
      served = true;
      serve_once(stream, hello, binder, addresses[i], hooks);
    }
    if (all_gone) {
      bool unreachable = false;
      for (std::size_t i = 0; i < addresses.size(); ++i) {
        if (ever_connected[i]) continue;
        unreachable = true;
        std::cerr << "qps_workerd: coordinator " << addresses[i]
                  << " was never reachable ("
                  << options.max_connect_failures + 1
                  << " consecutive dial failures)\n";
      }
      if (unreachable) return 2;
      std::cerr << "qps_workerd: no coordinator reachable; exiting\n";
      return 0;
    }
    // A successful serve means the coordinator may have another sweep
    // queued right behind this one -- re-dial immediately.  Only an
    // all-failure pass waits, for the soonest address's backoff.
    if (!served && sleep_seconds > 0.0)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(sleep_seconds));
  }
}

int run_listen_mode(std::uint16_t port, const qps::net::Hello& hello,
                    const qps::net::SweepBinder& binder,
                    const qps::net::ServeHooks& hooks) {
  qps::net::TcpListener listener = qps::net::TcpListener::bind(port);
  if (!listener.valid()) {
    std::cerr << "qps_workerd: cannot bind port "
              << (port == 0 ? std::string("(any)") : std::to_string(port))
              << "\n";
    return 2;
  }
  // Scripts parse this line to learn the kernel-chosen port.
  std::cout << "listening on 127.0.0.1:" << listener.port() << std::endl;
  // Accept failures (fd exhaustion, transient kernel errors) back off
  // instead of spinning the core.
  qps::util::Backoff accept_backoff(0.01, 1.0,
                                    static_cast<std::uint64_t>(::getpid()));
  for (;;) {
    qps::net::TcpStream stream = listener.accept();
    if (!stream.valid()) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(accept_backoff.next()));
      continue;
    }
    accept_backoff.reset();
    serve_once(stream, hello, binder, "coordinator", hooks);
  }
}

}  // namespace

int main(int argc, char** argv) {
  qps::Flags flags(argc, argv);
  DaemonOptions options;
  options.dp_threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  options.retry_seconds = flags.get_double("retry-seconds", 0.5);
  options.max_backoff_seconds =
      flags.get_double("max-backoff-seconds", options.max_backoff_seconds);
  options.max_connect_failures =
      static_cast<int>(flags.get_int("max-connect-failures", 20));
  const std::string connect = flags.get_string("connect", "");
  const bool listen = flags.has("listen");
  const std::string listen_value = flags.get_string("listen", "true");
  const std::string metrics_json = flags.get_string("metrics-json", "");
  const double metrics_interval = flags.get_double("metrics-interval", 5.0);
  const std::string fault_spec = flags.get_string("fault", "");
  const double idle_timeout = flags.get_double("idle-timeout", 0.0);
  const auto unused = flags.unused();
  if (!unused.empty() || (connect.empty() == !listen)) {
    std::cerr << "usage: qps_workerd --connect HOST:PORT[,HOST:PORT...] "
                 "| --listen[=PORT]\n"
                 "       [--threads N] [--retry-seconds S] "
                 "[--max-backoff-seconds S] [--max-connect-failures N]\n"
                 "       [--metrics-json FILE] [--metrics-interval S] "
                 "[--fault SPEC] [--idle-timeout S]\n";
    return 2;
  }
  if (!fault_spec.empty()) {
    if (!qps::fault::kFaultCompiled)
      std::cerr << "qps_workerd: --fault: fault injection is compiled out "
                   "(QPS_FAULT=0); the spec is ignored\n";
    try {
      qps::fault::configure(fault_spec);
    } catch (const std::invalid_argument& e) {
      std::cerr << "qps_workerd: --fault: " << e.what() << "\n";
      return 2;
    }
  }

  // Periodic (not just at-exit) dump: a daemon is typically killed, not
  // exited, so the file must stay fresh while it serves.  Kept alive for
  // the life of main; its destructor writes one final snapshot on the
  // clean-exit paths.
  std::unique_ptr<qps::obs::PeriodicMetricsDump> metrics_dump;
  if (!metrics_json.empty())
    metrics_dump = std::make_unique<qps::obs::PeriodicMetricsDump>(
        metrics_json, metrics_interval);

  qps::net::Hello hello;
  hello.node = node_name();
  hello.evaluators = qps::sweep::standard_evaluator_ids();
  const qps::net::SweepBinder binder =
      qps::net::registry_binder(options.dp_threads);

  qps::net::ServeHooks hooks;
  hooks.idle_timeout_seconds = idle_timeout;
  hooks.on_notice = [](const qps::net::Notice& notice) {
    if (notice.kind != "quarantine") return;
    emit_event("{\"event\": \"quarantine\", \"point\": " +
               qps::json_quote(notice.id) + ", \"index\": " +
               std::to_string(notice.index) + ", \"attempts\": " +
               std::to_string(notice.attempts) + "}");
  };

  if (!connect.empty()) {
    std::vector<std::string> addresses;
    for (std::size_t start = 0; start < connect.size();) {
      std::size_t comma = connect.find(',', start);
      if (comma == std::string::npos) comma = connect.size();
      if (comma > start) addresses.push_back(connect.substr(start, comma - start));
      start = comma + 1;
    }
    return run_connect_mode(addresses, hello, binder, options, hooks);
  }

  std::uint16_t port = 0;
  if (listen_value != "true") {
    char* end = nullptr;
    const unsigned long value = std::strtoul(listen_value.c_str(), &end, 10);
    if (end == listen_value.c_str() || *end != '\0' || value > 65535) {
      std::cerr << "qps_workerd: --listen expects a port, got '"
                << listen_value << "'\n";
      return 2;
    }
    port = static_cast<std::uint16_t>(value);
  }
  return run_listen_mode(port, hello, binder, hooks);
}
