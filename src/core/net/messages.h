// Control messages of the socket worker protocol.
//
// Every frame on a worker connection is one '\n'-terminated JSON line
// (core/net/framing.h reassembles them).  The request and result frames
// are the sweep wire lines (core/sweep/wire.h), the same ones the
// checkpoint journal stores; everything else is connection management:
//
//   worker -> coordinator   HELLO      first line after connect; carries
//                                      the protocol version and either a
//                                      (sweep, fingerprint) pin or the
//                                      worker's evaluator registry
//   coordinator -> worker   WELCOME    accept (heartbeat interval, and for
//                                      registry workers the evaluator id
//                                      plus the serialized spec) or a
//                                      decline with an error and a
//                                      retry/fatal classification
//   worker -> coordinator   HEARTBEAT  liveness while a long evaluation
//                                      keeps the data path silent
//   coordinator -> worker   BYE        sweep complete; the worker
//                                      disconnects cleanly
//   coordinator -> worker   NOTICE     advisory broadcast (currently: a
//                                      point was quarantined), so daemons
//                                      can surface structured events
//
// The version field exists so a mixed-version pair fails fast with both
// versions named in the error instead of silently mis-parsing lines; the
// coordinator echoes its own version in every welcome so the check runs
// in both directions.
//
// Frames are classified structurally (classify_line): HELLO is the only
// frame with "qpsnet", WELCOME the only one with "ok", results the only
// ones with "count".  Every decoder returns nullopt on malformed input --
// a garbage or truncated frame is a peer to drop, not a reason to abort.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace qps::net {

/// Bumped on any incompatible wire change (3: hello, welcome and result
/// frames lost their coordinator-takeover fields).
constexpr int kProtocolVersion = 3;

enum class LineKind {
  kHello,
  kWelcome,
  kRequest,
  kResult,
  kHeartbeat,
  kBye,
  kNotice,
  kUnknown,
};

/// Structural classification of a parsed protocol line.
LineKind classify_line(const JsonValue& value);

struct Hello {
  int version = kProtocolVersion;
  std::string node;  ///< Diagnostic worker name (hostname:pid style).
  /// Pinned mode: the worker rebuilt this exact sweep from its own flags.
  /// Empty sweep means registry mode.
  std::string sweep;
  std::uint64_t fingerprint = 0;
  /// Registry mode: evaluator ids the worker can serve
  /// (core/sweep/evaluators.h).
  std::vector<std::string> evaluators;

  bool pinned() const { return !sweep.empty(); }
};

std::string encode_hello(const Hello& hello);
std::optional<Hello> decode_hello(const JsonValue& value);

struct Welcome {
  bool ok = false;
  int version = kProtocolVersion;
  /// Decline diagnostics: human-readable reason, and whether the worker
  /// may usefully retry later (sweep not active yet) or must give up
  /// (version mismatch, unknown message).
  std::string error;
  bool retry = false;
  /// Accept payload.
  double heartbeat_seconds = 0.0;
  std::string sweep;
  std::uint64_t fingerprint = 0;
  /// Registry workers only: which evaluator to use and the serialized
  /// spec (core/sweep/spec_codec.h) to expand.  The encoder embeds
  /// `spec_text` (spec_to_json output) verbatim; the decoder surfaces the
  /// parsed object in `spec`.
  std::string evaluator;
  std::string spec_text;
  std::optional<JsonValue> spec;
};

std::string encode_welcome(const Welcome& welcome);
std::optional<Welcome> decode_welcome(const JsonValue& value);

/// Advisory coordinator -> worker broadcast.
struct Notice {
  std::string kind;  ///< Currently only "quarantine".
  std::size_t index = 0;
  std::string id;
  std::uint64_t attempts = 0;
};

std::string encode_notice(const Notice& notice);
std::optional<Notice> decode_notice(const JsonValue& value);

std::string encode_heartbeat();
std::string encode_bye();

}  // namespace qps::net
