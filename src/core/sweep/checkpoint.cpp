#include "core/sweep/checkpoint.h"

#include <fstream>
#include <iostream>

#include "core/fault/fault.h"
#include "core/obs/metrics.h"
#include "core/sweep/wire.h"

namespace qps::sweep {

SweepCheckpoint::SweepCheckpoint(std::string path, std::string sweep_name,
                                 std::uint64_t fingerprint, bool resume)
    : path_(std::move(path)),
      sweep_name_(std::move(sweep_name)),
      fingerprint_(fingerprint) {
  if (path_.empty()) return;
  if (resume) {
    std::ifstream in(path_);
    recovery_.existed = in.good();
    std::string line;
    while (in && std::getline(in, line)) {
      if (line.empty()) continue;
      if (is_journal_control(line)) {
        const auto ctl = decode_journal_control(line);
        if (!ctl) {
          ++recovery_.corrupt;
          continue;
        }
        if (ctl->sweep != sweep_name_ || ctl->fingerprint != fingerprint_) {
          ++recovery_.foreign;
          continue;
        }
        ++recovery_.control;
        if (ctl->kind == JournalRecordKind::kQuarantine)
          poisoned_[ctl->index] = ctl->attempts;
        else if (ctl->kind == JournalRecordKind::kReadmit)
          poisoned_.erase(ctl->index);
        continue;
      }
      const auto result = decode_result(line);
      if (!result) {
        // Torn tail (killed mid-append) or damaged mid-file line: the
        // journal is an optimization, never an authority, so the point is
        // simply recomputed -- but the damage is counted and reported
        // below, never swallowed.
        ++recovery_.corrupt;
        continue;
      }
      if (result->sweep != sweep_name_ || result->fingerprint != fingerprint_) {
        ++recovery_.foreign;
        continue;
      }
      completed_[result->index] = result->stats;
      poisoned_.erase(result->index);
      ++recovery_.recovered;
    }
    if (recovery_.existed && recovery_.corrupt > 0)
      std::cerr << "sweep " << sweep_name_ << ": checkpoint journal " << path_
                << ": skipped " << recovery_.corrupt
                << " unparseable line(s) (torn or corrupt); those points "
                   "will be recomputed\n";
    else if (recovery_.existed && recovery_.recovered == 0 &&
             recovery_.foreign == 0 && recovery_.control == 0)
      std::cerr << "sweep " << sweep_name_ << ": checkpoint journal " << path_
                << " is empty; nothing to resume\n";
  }
  // Always append: a bench may journal several sweeps into one file, so
  // truncating a stale journal is the caller's one-time decision (see
  // bench_common.h), not something to redo per sweep.
  try {
    out_ = std::make_unique<util::AppendFile>(path_, "sweep/checkpoint_write");
  } catch (const util::IoError& e) {
    throw CheckpointError(std::string("cannot open checkpoint journal: ") +
                              e.what(),
                          path_);
  } catch (const fault::InjectedFault& e) {
    throw CheckpointError(std::string("cannot open checkpoint journal ") +
                              path_ + ": " + e.what(),
                          path_);
  }
}

void SweepCheckpoint::write_checked(const std::string& line) {
  try {
    out_->write_line(line);
  } catch (const util::IoError& e) {
    throw CheckpointError(
        std::string("failed writing checkpoint journal: ") + e.what(), path_);
  } catch (const fault::InjectedFault& e) {
    // The injected stand-in for a full disk: same structured failure as
    // the real thing.
    throw CheckpointError(
        std::string("failed writing checkpoint journal ") + path_ + ": " +
            e.what(),
        path_);
  }
  uncommitted_ = true;
}

void SweepCheckpoint::record(const SweepPoint& point,
                             const RunningStats& stats) {
  if (!out_) return;
  write_checked(encode_result(sweep_name_, fingerprint_, point, stats));
  completed_[point.index] = stats;
  static obs::Counter& writes =
      obs::MetricsRegistry::instance().counter("sweep/checkpoint_writes");
  writes.increment();
}

void SweepCheckpoint::commit() {
  if (!out_ || !uncommitted_) return;
  try {
    out_->sync();
  } catch (const util::IoError& e) {
    throw CheckpointError(
        std::string("failed syncing checkpoint journal: ") + e.what(), path_);
  }
  uncommitted_ = false;
  static obs::Counter& syncs =
      obs::MetricsRegistry::instance().counter("sweep/checkpoint_syncs");
  syncs.increment();
}

void SweepCheckpoint::record_quarantine(const SweepPoint& point,
                                        std::uint64_t attempts) {
  if (!out_) return;
  write_checked(
      encode_quarantine_record(sweep_name_, fingerprint_, point, attempts));
  commit();
  poisoned_[point.index] = attempts;
}

void SweepCheckpoint::record_readmit(const SweepPoint& point) {
  if (!out_) return;
  write_checked(encode_readmit_record(sweep_name_, fingerprint_, point));
  commit();
  poisoned_.erase(point.index);
}

}  // namespace qps::sweep
