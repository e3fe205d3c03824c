// Checkpoint/resume journal for sweeps.
//
// The runner appends one wire-format result line per completed point with
// record(): a single write(2) on an O_APPEND descriptor (util/fsio.h), so a
// recorded point survives SIGKILL of the process and a crash can tear at
// most the in-flight line.  commit() then makes every line recorded since
// the last commit durable against power loss with one fdatasync: the
// runner commits once per point in-process and once per delivery round of
// the coordinator loop (sweep_runner.h), so a power loss drops at most the
// last uncommitted group, which --resume simply recomputes.  Quarantine
// and readmit records are written and synced at once.
//
// On resume the journal is scanned and every line whose (sweep name,
// fingerprint) matches the current spec seeds the result table; those
// points are never re-evaluated.  Lines from other sweeps (a bench may
// journal several into one file) or from a spec run under different
// options (fingerprint mismatch) are skipped silently -- they are someone
// else's data.  Corrupt or torn lines are skipped too, but *diagnosed*:
// the resume scan reports how many lines it could not parse (those points
// are recomputed), so a damaged journal never silently shrinks a resume.
// Write and sync failures throw CheckpointError naming the journal -- a
// silently lost journal would turn --resume into silent recomputation.
//
// Every line written consults the "sweep/checkpoint_write" fault point
// (core/fault/fault.h): `error` models a full disk, `torn` produces
// exactly the mid-file corruption the resume scanner must survive, and
// `crash` dies mid-transaction.
//
// Besides results the journal carries control records (core/sweep/wire.h):
// quarantine poison markers and readmit records that clear them.  Poison
// markers make quarantine sticky across --resume: a point that burned its
// retry budget failed deterministically, so only an explicit --readmit
// (after a code fix) re-runs it.  A legacy control record that journals
// of older builds carry (core/sweep/wire.h) is counted and ignored.
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/sweep/sweep_spec.h"
#include "util/fsio.h"
#include "util/stats.h"

namespace qps::sweep {

/// Thrown when the journal cannot be opened or a point cannot be durably
/// appended; what() names the journal path and the OS error.
class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(const std::string& what, std::string path)
      : std::runtime_error(what), path_(std::move(path)) {}
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class SweepCheckpoint {
 public:
  /// What the resume scan found; surfaced for tests and diagnostics.
  struct RecoveryReport {
    bool existed = false;        ///< The journal file was present.
    std::size_t recovered = 0;   ///< Lines matching (sweep, fingerprint).
    std::size_t foreign = 0;     ///< Valid lines of other sweeps/options.
    std::size_t corrupt = 0;     ///< Unparseable (torn/damaged) lines.
    std::size_t control = 0;     ///< Quarantine/readmit/legacy records.
  };

  /// An empty `path` disables journaling entirely.  With `resume` the
  /// existing file (if any) is scanned for entries matching (sweep_name,
  /// fingerprint) and then opened for append; without it the file is
  /// opened for append without scanning, so a fresh run extends the
  /// journal and a later --resume still sees every sweep's entries.
  /// Throws CheckpointError when the journal cannot be opened.
  SweepCheckpoint(std::string path, std::string sweep_name,
                  std::uint64_t fingerprint, bool resume);

  SweepCheckpoint(const SweepCheckpoint&) = delete;
  SweepCheckpoint& operator=(const SweepCheckpoint&) = delete;

  bool enabled() const { return !path_.empty(); }

  /// Journaled results recovered on construction, keyed by point index.
  const std::map<std::size_t, RunningStats>& completed() const {
    return completed_;
  }

  /// Resume-scan accounting (all zeros when not resuming).
  const RecoveryReport& recovery() const { return recovery_; }

  /// Points with an uncleared quarantine poison marker (index -> attempts
  /// recorded when poisoned); populated by the resume scan.
  const std::map<std::size_t, std::uint64_t>& poisoned() const {
    return poisoned_;
  }

  /// Writes one completed point to the journal (one write(2), no sync);
  /// throws CheckpointError on a failed write.  commit() makes it durable.
  void record(const SweepPoint& point, const RunningStats& stats);

  /// fdatasyncs every line written since the last commit (a no-op when
  /// there is none) and counts it in sweep/checkpoint_syncs; throws
  /// CheckpointError on a failed sync.
  void commit();

  /// Appends a quarantine poison marker for `point` and commits it.
  void record_quarantine(const SweepPoint& point, std::uint64_t attempts);

  /// Appends a readmit record for `point`, commits it, and clears its
  /// poison marker.
  void record_readmit(const SweepPoint& point);

 private:
  void write_checked(const std::string& line);

  std::string path_;
  std::string sweep_name_;
  std::uint64_t fingerprint_;
  std::map<std::size_t, RunningStats> completed_;
  std::map<std::size_t, std::uint64_t> poisoned_;
  RecoveryReport recovery_;
  std::unique_ptr<util::AppendFile> out_;
  bool uncommitted_ = false;  ///< Lines written since the last sync.
};

}  // namespace qps::sweep
