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
  if (value.contains("count")) return LineKind::kResult;
  if (value.contains("hb")) return LineKind::kHeartbeat;
  if (value.contains("bye")) return LineKind::kBye;
  if (value.contains("point")) return LineKind::kRequest;
  return LineKind::kUnknown;
}

std::string encode_hello(const Hello& hello) {
  return "{\"qpsnet\": " + std::to_string(hello.version) +
         ", \"node\": " + json_quote(hello.node) +
         ", \"sweep\": " + json_quote(hello.sweep) + ", \"fp\": " +
         json_quote(sweep::encode_hex_u64(hello.fingerprint)) + "}\n";
}

std::optional<Hello> decode_hello(const JsonValue& value) {
  try {
    Hello hello;
    hello.version = static_cast<int>(value.at("qpsnet").as_uint64());
    hello.node = value.at("node").as_string();
    // Another version's hello may be shaped differently (a v3 registry
    // hello has no pin at all); the coordinator declines it by version.
    if (hello.version != kProtocolVersion) return hello;
    hello.sweep = value.at("sweep").as_string();
    const auto fp = sweep::decode_hex_u64(value.at("fp").as_string());
    if (!fp || hello.sweep.empty()) return std::nullopt;
    hello.fingerprint = *fp;
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
    return welcome;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::string encode_heartbeat() { return "{\"hb\": 1}\n"; }

std::string encode_bye() { return "{\"bye\": true}\n"; }

}  // namespace qps::net
