// Crash-safe I/O helper tests: atomic whole-file replacement, durable
// journal appends, structured failures, and the torn-write fault hook.
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/fault/fault.h"
#include "util/fsio.h"

namespace qps::util {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "qps_fsio_" + std::to_string(::getpid()) + "_" +
         name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(WriteFileAtomic, CreatesAndReplaces) {
  const std::string path = temp_path("atomic.json");
  std::remove(path.c_str());
  EXPECT_TRUE(write_file_atomic(path, "first\n"));
  EXPECT_EQ(slurp(path), "first\n");
  EXPECT_TRUE(write_file_atomic(path, "second, longer content\n"));
  EXPECT_EQ(slurp(path), "second, longer content\n");
  // The staging file must not survive a successful write.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0);
  std::remove(path.c_str());
}

TEST(WriteFileAtomic, ReportsStructuredFailure) {
  std::string error;
  EXPECT_FALSE(write_file_atomic("/nonexistent-dir-qps/x.json", "x", &error));
  EXPECT_NE(error.find("/nonexistent-dir-qps/x.json"), std::string::npos)
      << error;
}

TEST(AppendFile, AppendsAcrossReopens) {
  const std::string path = temp_path("journal.jsonl");
  std::remove(path.c_str());
  {
    AppendFile journal(path);
    journal.append_line("one\n");
    journal.append_line("two\n");
  }
  {
    AppendFile journal(path);  // reopen must append, not truncate
    journal.append_line("three\n");
  }
  EXPECT_EQ(slurp(path), "one\ntwo\nthree\n");
  std::remove(path.c_str());
}

TEST(AppendFile, UnopenablePathThrowsIoErrorNamingIt) {
  const std::string path = "/nonexistent-dir-qps/journal.jsonl";
  try {
    AppendFile journal(path);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.path(), path);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST(AppendFile, TornFaultKeepsOnlyThePrefix) {
  fault::clear();
  const std::string path = temp_path("torn.jsonl");
  std::remove(path.c_str());
  fault::configure("test/fsio_append:torn:frac=0.5:after=2:count=1");
  {
    AppendFile journal(path, "test/fsio_append");
    journal.append_line("0123456789\n");  // hit 1: intact
    journal.append_line("0123456789\n");  // hit 2: torn, first 5 bytes kept
    journal.append_line("0123456789\n");  // hit 3: intact again
  }
  fault::clear();
  if (fault::kFaultCompiled)
    EXPECT_EQ(slurp(path), "0123456789\n012340123456789\n");
  else
    EXPECT_EQ(slurp(path), "0123456789\n0123456789\n0123456789\n");
  std::remove(path.c_str());
}

TEST(AppendFile, ErrorFaultSurfacesAsInjectedFault) {
  fault::clear();
  const std::string path = temp_path("diskfull.jsonl");
  std::remove(path.c_str());
  fault::configure("test/fsio_error:error:after=2");
  {
    AppendFile journal(path, "test/fsio_error");
    journal.append_line("committed\n");
    if (fault::kFaultCompiled)
      EXPECT_THROW(journal.append_line("lost\n"), fault::InjectedFault);
    else
      journal.append_line("lost\n");
  }
  fault::clear();
  // The committed line is durable regardless.
  EXPECT_NE(slurp(path).find("committed\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(AppendFile, GroupedWritesKeepPerLineFaultSemantics) {
  // A group commit writes each line on its own and syncs once: the fault
  // point is still consulted once per line written and never by sync(),
  // so torn and error rules land on the same line as with append_line().
  fault::clear();
  const std::string torn_path = temp_path("group_torn.jsonl");
  std::remove(torn_path.c_str());
  fault::configure("test/fsio_group:torn:frac=0.5:after=2:count=1");
  {
    AppendFile journal(torn_path, "test/fsio_group");
    journal.write_line("0123456789\n");  // hit 1: intact
    journal.sync();
    journal.sync();                       // consults no fault point
    journal.write_line("0123456789\n");  // hit 2: torn, first 5 bytes kept
    journal.write_line("0123456789\n");  // hit 3: intact again
    journal.sync();
  }
  fault::clear();
  if (fault::kFaultCompiled)
    EXPECT_EQ(slurp(torn_path), "0123456789\n012340123456789\n");
  else
    EXPECT_EQ(slurp(torn_path), "0123456789\n0123456789\n0123456789\n");
  std::remove(torn_path.c_str());

  const std::string error_path = temp_path("group_error.jsonl");
  std::remove(error_path.c_str());
  fault::configure("test/fsio_group:error:after=2");
  {
    AppendFile journal(error_path, "test/fsio_group");
    journal.write_line("written\n");
    if (fault::kFaultCompiled)
      EXPECT_THROW(journal.write_line("lost\n"), fault::InjectedFault);
    else
      journal.write_line("lost\n");
    journal.sync();  // the lines written before the failure still commit
  }
  fault::clear();
  EXPECT_EQ(slurp(error_path),
            fault::kFaultCompiled ? "written\n" : "written\nlost\n");
  std::remove(error_path.c_str());
}

TEST(DirFsync, AppendFileCreationSurfacesDirFsyncFault) {
  if (!fault::kFaultCompiled)
    GTEST_SKIP() << "fault injection compiled out (QPS_FAULT=OFF)";
  fault::clear();
  const std::string path = temp_path("dirsync.jsonl");
  std::remove(path.c_str());
  // A dying disk at the directory fsync that makes the journal's name
  // durable: creation must fail loudly, never hand back a journal whose
  // very existence could vanish in a crash.
  fault::configure("fsio/dir_fsync:error");
  EXPECT_THROW(AppendFile journal(path), fault::InjectedFault);
  fault::clear();
  { AppendFile journal(path); }  // healthy disk: same path now works
  std::remove(path.c_str());
}

TEST(DirFsync, AtomicWriteReportsDirFsyncFailureAfterRename) {
  if (!fault::kFaultCompiled)
    GTEST_SKIP() << "fault injection compiled out (QPS_FAULT=OFF)";
  fault::clear();
  const std::string path = temp_path("dirsync_atomic.json");
  std::remove(path.c_str());
  fault::configure("fsio/dir_fsync:error");
  std::string error;
  EXPECT_FALSE(write_file_atomic(path, "payload\n", &error));
  EXPECT_NE(error.find("fsync parent directory"), std::string::npos) << error;
  EXPECT_NE(error.find(path), std::string::npos) << error;
  fault::clear();
  EXPECT_TRUE(write_file_atomic(path, "payload\n", &error)) << error;
  EXPECT_EQ(slurp(path), "payload\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qps::util
