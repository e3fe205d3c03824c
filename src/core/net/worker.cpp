#include "core/net/worker.h"

#include <exception>

#include "core/sweep/wire.h"
#include "util/json.h"

namespace qps::net {

WorkerEngine::Event WorkerEngine::on_line(const std::string& line) {
  Event event;
  JsonValue value;
  try {
    value = JsonValue::parse(line);
  } catch (const std::exception&) {
    event.kind = Event::Kind::kProtocolError;
    event.error = "malformed frame from coordinator";
    return event;
  }
  switch (classify_line(value)) {
    case LineKind::kWelcome: {
      if (accepted_) {
        event.kind = Event::Kind::kProtocolError;
        event.error = "duplicate welcome";
        return event;
      }
      const auto welcome = decode_welcome(value);
      if (!welcome) {
        event.kind = Event::Kind::kProtocolError;
        event.error = "malformed welcome";
        return event;
      }
      if (welcome->version != kProtocolVersion) {
        event.kind = Event::Kind::kProtocolError;
        event.error = "protocol version mismatch: worker speaks v" +
                      std::to_string(kProtocolVersion) +
                      ", coordinator speaks v" +
                      std::to_string(welcome->version);
        return event;
      }
      event.welcome = *welcome;
      if (!welcome->ok) {
        event.kind = Event::Kind::kDeclined;
        return event;
      }
      if (welcome->sweep != hello_.sweep ||
          welcome->fingerprint != hello_.fingerprint) {
        // Cannot happen against a conforming coordinator (it accepts only
        // the pin the hello named), but a confused peer must not make us
        // compute points of a grid we did not build.
        event.kind = Event::Kind::kProtocolError;
        event.error = "coordinator accepted sweep '" + welcome->sweep +
                      "' but this worker is pinned to '" + hello_.sweep +
                      "'";
        return event;
      }
      accepted_ = true;
      event.kind = Event::Kind::kAccepted;
      return event;
    }
    case LineKind::kRequest: {
      if (!accepted_) {
        event.kind = Event::Kind::kProtocolError;
        event.error = "request before welcome";
        return event;
      }
      const auto index = sweep::decode_request(line);
      if (!index) {
        event.kind = Event::Kind::kProtocolError;
        event.error = "malformed request";
        return event;
      }
      event.kind = Event::Kind::kEvaluate;
      event.index = *index;
      return event;
    }
    case LineKind::kBye:
      event.kind = Event::Kind::kBye;
      return event;
    default:
      event.kind = Event::Kind::kProtocolError;
      event.error = "unexpected frame from coordinator";
      return event;
  }
}

std::string WorkerEngine::result_line(const sweep::SweepPoint& point,
                                      const RunningStats& stats) const {
  return sweep::encode_result(hello_.sweep, hello_.fingerprint, point, stats);
}

}  // namespace qps::net
