#include "core/net/messages.h"

#include <exception>

#include "core/sweep/wire.h"

namespace qps::net {

LineKind classify_line(const JsonValue& value) {
  if (value.kind() != JsonValue::Kind::kObject) return LineKind::kUnknown;
  // Order matters: a welcome also carries "qpsnet" (the coordinator's
  // version), so "ok" must be tested before "qpsnet".
  if (value.contains("ok")) return LineKind::kWelcome;
  if (value.contains("qpsnet")) return LineKind::kHello;
  // A notice also carries "point" (which index was quarantined), so it
  // must be tested before the request classification.
  if (value.contains("notice")) return LineKind::kNotice;
  if (value.contains("count")) return LineKind::kResult;
  if (value.contains("hb")) return LineKind::kHeartbeat;
  if (value.contains("bye")) return LineKind::kBye;
  if (value.contains("point")) return LineKind::kRequest;
  return LineKind::kUnknown;
}

std::string encode_hello(const Hello& hello) {
  std::string line = "{\"qpsnet\": " + std::to_string(hello.version) +
                     ", \"node\": " + json_quote(hello.node);
  if (hello.pinned()) {
    line += ", \"sweep\": " + json_quote(hello.sweep) + ", \"fp\": " +
            json_quote(sweep::encode_hex_u64(hello.fingerprint));
  } else {
    line += ", \"evaluators\": [";
    for (std::size_t i = 0; i < hello.evaluators.size(); ++i)
      line += (i ? ", " : "") + json_quote(hello.evaluators[i]);
    line += "]";
  }
  return line + "}\n";
}

std::optional<Hello> decode_hello(const JsonValue& value) {
  try {
    Hello hello;
    hello.version = static_cast<int>(value.at("qpsnet").as_uint64());
    hello.node = value.at("node").as_string();
    if (value.contains("sweep")) {
      hello.sweep = value.at("sweep").as_string();
      const auto fp = sweep::decode_hex_u64(value.at("fp").as_string());
      if (!fp) return std::nullopt;
      hello.fingerprint = *fp;
      if (hello.sweep.empty()) return std::nullopt;
    } else {
      for (const JsonValue& id : value.at("evaluators").as_array())
        hello.evaluators.push_back(id.as_string());
    }
    return hello;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::string encode_welcome(const Welcome& welcome) {
  std::string line =
      std::string("{\"ok\": ") + (welcome.ok ? "true" : "false") +
      ", \"qpsnet\": " + std::to_string(welcome.version);
  if (!welcome.ok) {
    line += ", \"error\": " + json_quote(welcome.error) +
            ", \"retry\": " + (welcome.retry ? "true" : "false");
  } else {
    line += ", \"hb\": " + json_number(welcome.heartbeat_seconds) +
            ", \"sweep\": " + json_quote(welcome.sweep) + ", \"fp\": " +
            json_quote(sweep::encode_hex_u64(welcome.fingerprint));
    if (!welcome.evaluator.empty()) {
      // The spec travels as its serialized text re-embedded verbatim; it
      // was produced by spec_to_json and is itself a JSON object.
      line += ", \"evaluator\": " + json_quote(welcome.evaluator) +
              ", \"spec\": " + welcome.spec_text;
    }
  }
  return line + "}\n";
}

std::optional<Welcome> decode_welcome(const JsonValue& value) {
  try {
    Welcome welcome;
    welcome.ok = value.at("ok").as_bool();
    welcome.version = static_cast<int>(value.at("qpsnet").as_uint64());
    if (!welcome.ok) {
      welcome.error = value.at("error").as_string();
      welcome.retry = value.at("retry").as_bool();
      return welcome;
    }
    welcome.heartbeat_seconds = value.at("hb").as_double();
    welcome.sweep = value.at("sweep").as_string();
    const auto fp = sweep::decode_hex_u64(value.at("fp").as_string());
    if (!fp) return std::nullopt;
    welcome.fingerprint = *fp;
    if (value.contains("evaluator")) {
      welcome.evaluator = value.at("evaluator").as_string();
      welcome.spec = value.at("spec");
    }
    return welcome;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::string encode_notice(const Notice& notice) {
  return "{\"notice\": " + json_quote(notice.kind) +
         ", \"point\": " + std::to_string(notice.index) +
         ", \"id\": " + json_quote(notice.id) +
         ", \"attempts\": " + std::to_string(notice.attempts) + "}\n";
}

std::optional<Notice> decode_notice(const JsonValue& value) {
  try {
    Notice notice;
    notice.kind = value.at("notice").as_string();
    notice.index = static_cast<std::size_t>(value.at("point").as_uint64());
    notice.id = value.at("id").as_string();
    notice.attempts = value.at("attempts").as_uint64();
    return notice;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::string encode_heartbeat() { return "{\"hb\": 1}\n"; }

std::string encode_bye() { return "{\"bye\": true}\n"; }

}  // namespace qps::net
