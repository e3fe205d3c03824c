// Crash-safe file I/O helpers.
//
// Two write disciplines, for the two shapes of durable file this codebase
// produces:
//
//  * write_file_atomic(): whole-file snapshots (metrics/trace JSON dumps).
//    The content goes to a temporary file in the same directory, is
//    fsync'd, and is rename(2)'d over the target, so a crash at any
//    instant leaves either the old file or the new one -- never a torn
//    head.  The directory entry is fsync'd too, making the rename itself
//    durable.
//
//  * AppendFile: append-only journals (the sweep checkpoint).  Each
//    write_line() is one write(2) on an O_APPEND descriptor, so a written
//    line survives SIGKILL and at most the in-flight line can be torn;
//    sync() is one fdatasync(2) that makes every line written so far
//    survive a power loss too.  append_line() is both, for a line that
//    must be durable on its own; a caller committing a group of lines
//    writes each and syncs once.  AppendFile is the only journal code
//    that syncs.  Failures throw IoError naming the path and errno -- a
//    silently lost journal line would turn resume into silent
//    recomputation.
//
// Both honor fault-injection rules on the caller-supplied fault point
// (core/fault/fault.h): `error`/`alloc`/`crash`/`delay` act before the
// write, and a `torn` rule makes AppendFile keep only a prefix of the
// line while still reporting success -- the exact corruption the resume
// scanner must survive.  AppendFile consults its fault point once per
// line written, never on sync().
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace qps::util {

/// Thrown on any I/O failure; what() names the path and the errno text.
class IoError : public std::runtime_error {
 public:
  IoError(const std::string& what, std::string path)
      : std::runtime_error(what), path_(std::move(path)) {}
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Writes all of `bytes` to `fd`, retrying on EINTR and short writes;
/// false (with errno set) on any other error.
bool write_all(int fd, std::string_view bytes);

/// Atomically replaces `path` with `content` (tmp file + fsync + rename).
/// Returns false and fills `error` (when non-null) on failure instead of
/// throwing -- the obs dump sites treat a failed dump as a warning.
bool write_file_atomic(const std::string& path, std::string_view content,
                       std::string* error = nullptr);

class AppendFile {
 public:
  /// Opens `path` for durable appends (O_APPEND | O_CREAT).  `fault_point`
  /// (may be null) names the injection point consulted on every line
  /// written.
  /// Throws IoError when the file cannot be opened.
  explicit AppendFile(std::string path, const char* fault_point = nullptr);
  ~AppendFile();

  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Appends `line` with one write(2), without syncing; throws IoError on
  /// short or failed writes.  A torn-write fault keeps a prefix only and
  /// reports success (that is the fault).
  void write_line(std::string_view line);

  /// fdatasyncs every line written so far; throws IoError on failure.
  void sync();

  /// write_line() then sync(): one line, durable on its own.
  void append_line(std::string_view line);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  const char* fault_point_;
  int fd_ = -1;
};

}  // namespace qps::util
