#include "util/fsio.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/fault/fault.h"

namespace qps::util {

namespace {

std::string errno_text() {
  return std::strerror(errno) + (" (errno " + std::to_string(errno) + ")");
}

std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// fsync of `path`'s parent directory, making a just-created or
/// just-renamed entry durable; consults the "fsio/dir_fsync" fault point
/// (`error` models a dying disk, `crash` the power cut the fsync exists
/// for).  False (with errno set) on failure.
bool sync_parent_dir(const std::string& path) {
  qps::fault::hit("fsio/dir_fsync", path);
  const int dir_fd =
      ::open(parent_dir(path).c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return false;
  const bool ok = ::fsync(dir_fd) == 0;
  ::close(dir_fd);
  return ok;
}

bool fail(std::string* error, const std::string& why) {
  if (error) *error = why;
  return false;
}

}  // namespace

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool write_file_atomic(const std::string& path, std::string_view content,
                       std::string* error) {
  // The tmp file must live in the target's directory: rename(2) is atomic
  // only within one filesystem.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0)
    return fail(error, "cannot create " + tmp + ": " + errno_text());
  if (!write_all(fd, content)) {
    const std::string why = "cannot write " + tmp + ": " + errno_text();
    ::close(fd);
    ::unlink(tmp.c_str());
    return fail(error, why);
  }
  if (::fsync(fd) != 0) {
    const std::string why = "cannot fsync " + tmp + ": " + errno_text();
    ::close(fd);
    ::unlink(tmp.c_str());
    return fail(error, why);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return fail(error, "cannot close " + tmp + ": " + errno_text());
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why =
        "cannot rename " + tmp + " to " + path + ": " + errno_text();
    ::unlink(tmp.c_str());
    return fail(error, why);
  }
  // fsync the directory so the rename itself survives a crash; without
  // it the new name may not be durable even though the data blocks are,
  // so a failure is a failure (the caller decides whether a
  // maybe-undurable rename is acceptable).
  try {
    if (!sync_parent_dir(path))
      return fail(error, "cannot fsync parent directory of " + path + ": " +
                             errno_text());
  } catch (const qps::fault::InjectedFault& e) {
    return fail(error, "cannot fsync parent directory of " + path + ": " +
                           std::string(e.what()));
  }
  return true;
}

AppendFile::AppendFile(std::string path, const char* fault_point)
    : path_(std::move(path)), fault_point_(fault_point) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0)
    throw IoError("cannot open " + path_ + " for append: " + errno_text(),
                  path_);
  // Make the journal's directory entry durable: O_CREAT created the file,
  // but a crash before the parent directory hits disk would lose the name
  // -- and with it every line "durably" appended afterwards.  (Throws
  // InjectedFault under a "fsio/dir_fsync" fault rule.)
  if (!sync_parent_dir(path_)) {
    const std::string why =
        "cannot fsync parent directory of " + path_ + ": " + errno_text();
    ::close(fd_);
    fd_ = -1;
    throw IoError(why, path_);
  }
}

AppendFile::~AppendFile() {
  if (fd_ >= 0) ::close(fd_);
}

void AppendFile::write_line(std::string_view line) {
  std::size_t size = line.size();
  if (fault_point_ != nullptr) {
    // error/alloc throw here (the "disk full" stand-in), crash exits
    // mid-transaction, and a torn rule truncates the payload below.
    qps::fault::hit(fault_point_);
    if (const auto frac = qps::fault::consume_torn(fault_point_))
      size = static_cast<std::size_t>(static_cast<double>(size) * *frac);
  }
  if (!write_all(fd_, line.substr(0, size)))
    throw IoError("failed writing " + path_ + ": " + errno_text(), path_);
}

void AppendFile::sync() {
  if (::fdatasync(fd_) != 0)
    throw IoError("failed syncing " + path_ + ": " + errno_text(), path_);
}

void AppendFile::append_line(std::string_view line) {
  write_line(line);
  sync();
}

}  // namespace qps::util
