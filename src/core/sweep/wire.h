// Line-delimited JSON wire format shared by the worker protocol and the
// checkpoint journal.
//
// One line, one message.  Requests (runner -> worker) carry a point index;
// results (worker -> runner, and journal entries) carry the sweep name, the
// spec fingerprint, the point's index and id, and the five raw moments of
// its RunningStats.  Doubles are printed with max_digits10 and non-finite
// values as their string encodings (util/json.h), so a result that crosses
// a socket or a restart reconstructs bit-for-bit -- the aggregated output of
// a sharded or resumed sweep is byte-identical to an in-process run.
//
// decode_result() returns std::nullopt on any malformed line instead of
// throwing: a worker killed mid-write leaves a truncated final line in the
// journal, and resume must skip it, not abort.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/sweep/sweep_spec.h"
#include "util/stats.h"

namespace qps::sweep {

/// `v` as a fixed-width lowercase hex string ("%016x"); the encoding used
/// for fingerprints and seeds everywhere a uint64 crosses the wire or the
/// journal, since a JSON number (double) cannot carry 64 bits exactly.
std::string encode_hex_u64(std::uint64_t v);

/// Inverts encode_hex_u64 (also accepts shorter strings); nullopt on any
/// non-hex character or on more than 16 digits.
std::optional<std::uint64_t> decode_hex_u64(const std::string& s);

/// A decoded result line.
struct WireResult {
  std::string sweep;
  std::uint64_t fingerprint = 0;
  std::size_t index = 0;
  std::string id;
  RunningStats stats;
};

/// Request line asking a worker for point `index` (newline included).
std::string encode_request(std::size_t index);

/// Parses a request line; nullopt when malformed.
std::optional<std::size_t> decode_request(std::string_view line);

/// Result line for `point` of the sweep identified by (name, fingerprint)
/// (newline included).
std::string encode_result(const std::string& sweep_name,
                          std::uint64_t fingerprint, const SweepPoint& point,
                          const RunningStats& stats);

/// Parses a result line; nullopt when malformed or truncated.
std::optional<WireResult> decode_result(std::string_view line);

// ---------------------------------------------------------------------------
// Journal control records.
//
// Besides result lines, the checkpoint journal carries control records --
// one-line JSON objects tagged with a "ctl" key so the resume scanner can
// tell them from results (and from corruption):
//
//  * quarantine -- a poison marker: `point` burned its retry budget and
//    must not be re-run by a plain --resume (the failure is deterministic
//    until the code changes).
//  * readmit  -- clears the poison marker for `point`; appended by
//    --readmit before the point is re-run under a fresh retry budget.
//  * epoch    -- legacy: journals written by older builds carry one per
//    coordinator start.  It is still decoded, so resume counts it as a
//    control record instead of corruption, and otherwise ignored.

/// Kind of one journal control record.
enum class JournalRecordKind { kQuarantine, kReadmit, kLegacyEpoch };

/// A decoded journal control record (quarantine / readmit / legacy epoch).
struct JournalControl {
  JournalRecordKind kind = JournalRecordKind::kQuarantine;
  std::string sweep;
  std::uint64_t fingerprint = 0;
  std::size_t index = 0;       ///< kQuarantine / kReadmit.
  std::string id;              ///< kQuarantine / kReadmit.
  std::uint64_t attempts = 0;  ///< kQuarantine only.
};

/// True when `line` is a journal control record (has the "ctl" tag); such
/// lines must never be counted as corrupt results.
bool is_journal_control(std::string_view line);

std::string encode_quarantine_record(const std::string& sweep_name,
                                     std::uint64_t fingerprint,
                                     const SweepPoint& point,
                                     std::uint64_t attempts);
std::string encode_readmit_record(const std::string& sweep_name,
                                  std::uint64_t fingerprint,
                                  const SweepPoint& point);

/// Parses a control record line; nullopt when malformed (a torn control
/// record is skipped by resume exactly like a torn result).
std::optional<JournalControl> decode_journal_control(std::string_view line);

}  // namespace qps::sweep
