// Control messages of the socket worker protocol.
//
// Every frame on a worker connection is one '\n'-terminated JSON line
// (core/net/framing.h reassembles them).  The request and result frames
// are the sweep wire lines (core/sweep/wire.h), the same ones the
// checkpoint journal stores; everything else is connection management:
//
//   worker -> coordinator   HELLO      first line after connect; carries
//                                      the protocol version and the
//                                      (sweep, fingerprint) pin of the
//                                      sweep the worker rebuilt from its
//                                      own flags
//   coordinator -> worker   WELCOME    accept (heartbeat interval, sweep,
//                                      fingerprint) or a decline with an
//                                      error and a retry/fatal
//                                      classification
//   worker -> coordinator   HEARTBEAT  liveness while a long evaluation
//                                      keeps the data path silent
//   coordinator -> worker   BYE        sweep complete; the worker
//                                      disconnects cleanly
//
// The version field exists so a mixed-version pair fails fast with both
// versions named in the error instead of silently mis-parsing lines; the
// coordinator echoes its own version in every welcome so the check runs
// in both directions.  decode_hello reads the version before anything
// else, so a hello of another version -- whatever else it carries -- is
// declined by version, never dropped as malformed.
//
// Frames are classified structurally (classify_line): HELLO is the only
// frame with "qpsnet", WELCOME the only one with "ok", results the only
// ones with "count".  Every decoder returns nullopt on malformed input --
// a garbage or truncated frame is a peer to drop, not a reason to abort.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/json.h"

namespace qps::net {

/// Bumped on any incompatible wire change (3: hello, welcome and result
/// frames lost their coordinator-takeover fields; 4: every hello is
/// pinned to a sweep, the welcome carries no spec, and the coordinator no
/// longer broadcasts quarantines).
constexpr int kProtocolVersion = 4;

enum class LineKind {
  kHello,
  kWelcome,
  kRequest,
  kResult,
  kHeartbeat,
  kBye,
  kUnknown,
};

/// Structural classification of a parsed protocol line.
LineKind classify_line(const JsonValue& value);

struct Hello {
  int version = kProtocolVersion;
  std::string node;  ///< Diagnostic worker name (hostname:pid style).
  /// The sweep the worker rebuilt from its own flags.  Decoded only when
  /// `version` is kProtocolVersion; a hello of another version carries
  /// just its version and node.
  std::string sweep;
  std::uint64_t fingerprint = 0;
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
};

std::string encode_welcome(const Welcome& welcome);
std::optional<Welcome> decode_welcome(const JsonValue& value);

std::string encode_heartbeat();
std::string encode_bye();

}  // namespace qps::net
