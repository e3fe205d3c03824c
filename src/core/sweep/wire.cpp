#include "core/sweep/wire.h"

#include <cinttypes>
#include <cstdio>
#include <exception>

#include "util/json.h"

namespace qps::sweep {

std::string encode_hex_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::optional<std::uint64_t> decode_hex_u64(const std::string& s) {
  if (s.empty() || s.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9')
      v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else
      return std::nullopt;
  }
  return v;
}

std::string encode_request(std::size_t index) {
  return "{\"point\": " + std::to_string(index) + "}\n";
}

std::optional<std::size_t> decode_request(std::string_view line) {
  try {
    const JsonValue v = JsonValue::parse(line);
    return static_cast<std::size_t>(v.at("point").as_uint64());
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::string encode_result(const std::string& sweep_name,
                          std::uint64_t fingerprint, const SweepPoint& point,
                          const RunningStats& stats) {
  const double m2 = stats.sum_squared_deviations();
  return "{\"sweep\": " + json_quote(sweep_name) +
         ", \"fp\": " + json_quote(encode_hex_u64(fingerprint)) +
         ", \"point\": " + std::to_string(point.index) +
         ", \"id\": " + json_quote(point.id) +
         ", \"count\": " + std::to_string(stats.count()) +
         ", \"mean\": " + json_number(stats.mean()) +
         ", \"m2\": " + json_number(m2) +
         ", \"min\": " + json_number(stats.min()) +
         ", \"max\": " + json_number(stats.max()) + "}\n";
}

std::optional<WireResult> decode_result(std::string_view line) {
  try {
    const JsonValue v = JsonValue::parse(line);
    WireResult result;
    result.sweep = v.at("sweep").as_string();
    const auto fp = decode_hex_u64(v.at("fp").as_string());
    if (!fp) return std::nullopt;
    result.fingerprint = *fp;
    result.index = static_cast<std::size_t>(v.at("point").as_uint64());
    result.id = v.at("id").as_string();
    result.stats = RunningStats::from_moments(
        static_cast<std::size_t>(v.at("count").as_uint64()),
        v.at("mean").as_double(), v.at("m2").as_double(),
        v.at("min").as_double(), v.at("max").as_double());
    return result;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

bool is_journal_control(std::string_view line) {
  try {
    const JsonValue v = JsonValue::parse(line);
    return v.contains("ctl");
  } catch (const std::exception&) {
    return false;
  }
}

namespace {

std::string control_prefix(const char* kind, const std::string& sweep_name,
                           std::uint64_t fingerprint) {
  return std::string("{\"ctl\": \"") + kind +
         "\", \"sweep\": " + json_quote(sweep_name) +
         ", \"fp\": " + json_quote(encode_hex_u64(fingerprint));
}

}  // namespace

std::string encode_quarantine_record(const std::string& sweep_name,
                                     std::uint64_t fingerprint,
                                     const SweepPoint& point,
                                     std::uint64_t attempts) {
  return control_prefix("quarantine", sweep_name, fingerprint) +
         ", \"point\": " + std::to_string(point.index) +
         ", \"id\": " + json_quote(point.id) +
         ", \"attempts\": " + std::to_string(attempts) + "}\n";
}

std::string encode_readmit_record(const std::string& sweep_name,
                                  std::uint64_t fingerprint,
                                  const SweepPoint& point) {
  return control_prefix("readmit", sweep_name, fingerprint) +
         ", \"point\": " + std::to_string(point.index) +
         ", \"id\": " + json_quote(point.id) + "}\n";
}

std::optional<JournalControl> decode_journal_control(std::string_view line) {
  try {
    const JsonValue v = JsonValue::parse(line);
    JournalControl record;
    const std::string& kind = v.at("ctl").as_string();
    record.sweep = v.at("sweep").as_string();
    const auto fp = decode_hex_u64(v.at("fp").as_string());
    if (!fp) return std::nullopt;
    record.fingerprint = *fp;
    if (kind == "epoch") {
      record.kind = JournalRecordKind::kLegacyEpoch;
    } else if (kind == "quarantine") {
      record.kind = JournalRecordKind::kQuarantine;
      record.index = static_cast<std::size_t>(v.at("point").as_uint64());
      record.id = v.at("id").as_string();
      record.attempts = v.at("attempts").as_uint64();
    } else if (kind == "readmit") {
      record.kind = JournalRecordKind::kReadmit;
      record.index = static_cast<std::size_t>(v.at("point").as_uint64());
      record.id = v.at("id").as_string();
    } else {
      return std::nullopt;
    }
    return record;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace qps::sweep
