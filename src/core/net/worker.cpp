#include "core/net/worker.h"

#include <exception>
#include <optional>

#include "core/sweep/evaluators.h"
#include "core/sweep/spec_codec.h"
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
      accepted_ = true;
      sweep_name_ = welcome->sweep;
      fingerprint_ = welcome->fingerprint;
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
    case LineKind::kNotice: {
      if (!accepted_) {
        event.kind = Event::Kind::kProtocolError;
        event.error = "notice before welcome";
        return event;
      }
      const auto notice = decode_notice(value);
      if (!notice) {
        event.kind = Event::Kind::kProtocolError;
        event.error = "malformed notice";
        return event;
      }
      event.kind = Event::Kind::kNotice;
      event.notice = *notice;
      return event;
    }
    default:
      event.kind = Event::Kind::kProtocolError;
      event.error = "unexpected frame from coordinator";
      return event;
  }
}

std::string WorkerEngine::result_line(const sweep::SweepPoint& point,
                                      const RunningStats& stats) const {
  return sweep::encode_result(sweep_name_, fingerprint_, point, stats);
}

SweepBinder pinned_binder(const sweep::SweepSpec& spec,
                          sweep::PointEvaluator eval) {
  const std::string name = spec.name();
  auto expanded = spec.expand();
  return [name, expanded = std::move(expanded), eval = std::move(eval)](
             const Welcome& welcome, std::vector<sweep::SweepPoint>& points,
             sweep::PointEvaluator& out_eval, std::string& error) {
    if (welcome.sweep != name) {
      // Cannot happen against a conforming coordinator (the pinned hello
      // named the sweep), but a confused peer must not make us compute
      // points of a grid we did not build.
      error = "coordinator accepted sweep '" + welcome.sweep +
              "' but this worker is pinned to '" + name + "'";
      return false;
    }
    points = expanded;
    out_eval = eval;
    return true;
  };
}

SweepBinder registry_binder(std::size_t dp_threads) {
  return [dp_threads](const Welcome& welcome,
                      std::vector<sweep::SweepPoint>& points,
                      sweep::PointEvaluator& out_eval, std::string& error) {
    if (!welcome.spec || welcome.evaluator.empty()) {
      error = "coordinator accepted a registry worker without shipping an "
              "evaluator and spec";
      return false;
    }
    std::optional<sweep::SweepSpec> spec;
    try {
      spec = sweep::spec_from_json(*welcome.spec);
    } catch (const std::exception& e) {
      error = std::string("undecodable spec in welcome: ") + e.what();
      return false;
    }
    // The re-derived fingerprint must agree with the coordinator's claim;
    // disagreement means codec or version skew and silently mismatched
    // grids, so refuse loudly instead.
    if (spec->fingerprint() != welcome.fingerprint) {
      error = "spec fingerprint mismatch after decode: coordinator claims " +
              sweep::encode_hex_u64(welcome.fingerprint) + ", decoded spec " +
              "has " + sweep::encode_hex_u64(spec->fingerprint());
      return false;
    }
    out_eval = sweep::find_standard_evaluator(welcome.evaluator, dp_threads);
    if (!out_eval) {
      error = "evaluator '" + welcome.evaluator +
              "' is not in this worker's registry";
      return false;
    }
    points = spec->expand();
    return true;
  };
}

}  // namespace qps::net
