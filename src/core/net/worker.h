// Worker-side protocol state machine and sweep binding.
//
// WorkerEngine mirrors JobServerEngine: a transport-free line-level state
// machine (send hello, await welcome, then serve request frames until
// bye).  The blocking TCP driver around it lives in
// core/net/socket_sweep.h; the simulated driver in the test suite's
// support library (tests/support/).
//
// What a worker actually evaluates is bound from the accepted welcome by
// a SweepBinder:
//
//  * pinned workers (a bench re-invoked with --connect) rebuilt the spec
//    from their own argv and bind their own evaluator, ignoring the
//    welcome payload;
//  * registry workers (tools/qps_workerd) decode the spec the welcome
//    carries (core/sweep/spec_codec.h), re-derive its fingerprint, refuse
//    to serve when it disagrees with the coordinator's claim, and look
//    the evaluator up in the standard registry.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/net/messages.h"
#include "core/sweep/sweep_runner.h"
#include "core/sweep/sweep_spec.h"

namespace qps::net {

class WorkerEngine {
 public:
  explicit WorkerEngine(Hello hello) : hello_(std::move(hello)) {}

  /// The first frame to transmit after connecting.
  std::string hello_line() const { return encode_hello(hello_); }

  struct Event {
    enum class Kind {
      kNone,           ///< Frame consumed (nothing for the driver to do).
      kAccepted,       ///< Welcome accepted; `welcome` holds the payload.
      kDeclined,       ///< Welcome declined; `welcome.retry` classifies.
      kEvaluate,       ///< Coordinator requests point `index`.
      kBye,            ///< Sweep complete; disconnect cleanly.
      kNotice,         ///< Advisory broadcast; `notice` holds the payload.
      kProtocolError,  ///< Peer violated the protocol; `error` explains.
    };
    Kind kind = Kind::kNone;
    Welcome welcome;
    Notice notice;
    std::size_t index = 0;
    std::string error;
  };

  /// Consumes one reassembled line from the coordinator.
  Event on_line(const std::string& line);

  /// Result frame for a completed evaluation (sweep and fingerprint from
  /// the accepted welcome).
  std::string result_line(const sweep::SweepPoint& point,
                          const RunningStats& stats) const;

  bool accepted() const { return accepted_; }

 private:
  Hello hello_;
  bool accepted_ = false;
  std::string sweep_name_;
  std::uint64_t fingerprint_ = 0;
};

/// Produces the points and evaluator to serve from an accepted welcome;
/// returns false (with `error` set) to abandon the connection.
using SweepBinder = std::function<bool(
    const Welcome& welcome, std::vector<sweep::SweepPoint>& points,
    sweep::PointEvaluator& eval, std::string& error)>;

/// Binder for a pinned worker: serve exactly this spec with this
/// evaluator.
SweepBinder pinned_binder(const sweep::SweepSpec& spec,
                          sweep::PointEvaluator eval);

/// Binder for a registry worker: decode the welcome's spec, verify its
/// fingerprint against the coordinator's claim, and look up the
/// advertised evaluator in the standard registry (dp_threads as in
/// core/sweep/evaluators.h).
SweepBinder registry_binder(std::size_t dp_threads);

}  // namespace qps::net
