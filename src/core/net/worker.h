// Worker-side protocol state machine.
//
// WorkerEngine mirrors JobServerEngine: a transport-free line-level state
// machine (send hello, await welcome, then serve request frames until
// bye).  The blocking TCP driver around it lives in
// core/net/socket_sweep.h; the simulated driver in the test suite's
// support library (tests/support/).
//
// Every worker is pinned: it rebuilt its sweep from its own flags (a
// bench re-invoked with --connect, or a --workers child over a
// socketpair) and names it in the hello.  The engine refuses a welcome
// for any other sweep, so a confused peer cannot make it compute points
// of a grid it did not build; the driver evaluates its own spec's points
// with its own evaluator.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "core/net/messages.h"
#include "core/sweep/sweep_spec.h"
#include "util/stats.h"

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
      kProtocolError,  ///< Peer violated the protocol; `error` explains.
    };
    Kind kind = Kind::kNone;
    Welcome welcome;
    std::size_t index = 0;
    std::string error;
  };

  /// Consumes one reassembled line from the coordinator.
  Event on_line(const std::string& line);

  /// Result frame for a completed evaluation of the pinned sweep.
  std::string result_line(const sweep::SweepPoint& point,
                          const RunningStats& stats) const;

  bool accepted() const { return accepted_; }

 private:
  Hello hello_;
  bool accepted_ = false;
};

}  // namespace qps::net
