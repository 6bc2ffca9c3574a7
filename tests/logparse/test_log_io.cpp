#include "logparse/log_io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/intellog.hpp"
#include "obs/metrics.hpp"
#include "simsys/workload.hpp"

using namespace intellog;
using namespace intellog::logparse;

namespace {

class TempDir {
 public:
  TempDir() : path_("/tmp/intellog_logio_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter_++)) {}
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

}  // namespace

TEST(LogIo, SessionRoundTripHadoop) {
  TempDir dir;
  const auto fmt = make_hadoop_formatter();
  Session s;
  s.container_id = "container_1";
  for (int i = 0; i < 5; ++i) {
    LogRecord rec;
    rec.timestamp_ms = 1000u * static_cast<unsigned>(i);
    rec.level = i == 3 ? "WARN" : "INFO";
    rec.source = "mapred.MapTask";
    rec.content = "Processing split number " + std::to_string(i);
    rec.container_id = s.container_id;
    s.records.push_back(rec);
  }
  write_log_directory(*fmt, {s}, dir.path());
  const auto back = read_log_directory(dir.path(), "mapreduce");
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].container_id, "container_1");
  EXPECT_EQ(back[0].system, "mapreduce");
  ASSERT_EQ(back[0].records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(back[0].records[static_cast<std::size_t>(i)].content,
              s.records[static_cast<std::size_t>(i)].content);
    EXPECT_EQ(back[0].records[static_cast<std::size_t>(i)].timestamp_ms,
              s.records[static_cast<std::size_t>(i)].timestamp_ms);
  }
  EXPECT_EQ(back[0].records[3].level, "WARN");
}

TEST(LogIo, MixedFormatsAutoDetected) {
  TempDir dir;
  std::filesystem::create_directories(dir.path());
  const auto hadoop = make_hadoop_formatter();
  const auto spark = make_spark_formatter();
  Session a;
  a.container_id = "c_hadoop";
  {
    LogRecord rec;
    rec.level = "INFO";
    rec.source = "x.Y";
    rec.content = "hadoop message";
    rec.container_id = "c_hadoop";
    a.records.push_back(std::move(rec));
  }
  Session b;
  b.container_id = "c_spark";
  {
    LogRecord rec;
    rec.level = "INFO";
    rec.source = "x.Y";
    rec.content = "spark message";
    rec.container_id = "c_spark";
    b.records.push_back(std::move(rec));
  }
  write_session_file(*hadoop, a, dir.path() + "/c_hadoop.log");
  write_session_file(*spark, b, dir.path() + "/c_spark.log");
  const auto back = read_log_directory(dir.path());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].records[0].content, "hadoop message");
  EXPECT_EQ(back[1].records[0].content, "spark message");
}

TEST(LogIo, EmptyFilesSurfaceAsEmptySessions) {
  // A zero-byte .log file is a container that died before logging a single
  // line — real detection signal (the session-abort signature), not junk.
  TempDir dir;
  std::filesystem::create_directories(dir.path());
  { std::ofstream empty(dir.path() + "/container_dead_01.log"); }
  {
    std::ofstream ok(dir.path() + "/container_live_02.log");
    ok << "2019-06-01 01:02:03,000 INFO [main] x.Y: hadoop message\n";
  }
  const auto sessions = read_log_directory(dir.path());
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].container_id, "container_dead_01");
  EXPECT_TRUE(sessions[0].records.empty());
  EXPECT_EQ(sessions[1].container_id, "container_live_02");
  EXPECT_EQ(sessions[1].records.size(), 1u);

  const auto resilient = read_log_directory_resilient(dir.path());
  ASSERT_EQ(resilient.sessions.size(), 2u);
  EXPECT_TRUE(resilient.sessions[0].records.empty());
}

TEST(LogIo, UnparseableFilesSkipped) {
  TempDir dir;
  std::filesystem::create_directories(dir.path());
  {
    std::ofstream junk(dir.path() + "/junk.log");
    junk << "this is not a log format\nat all\n";
    std::ofstream other(dir.path() + "/readme.txt");
    other << "ignored extension\n";
  }
  EXPECT_TRUE(read_log_directory(dir.path()).empty());
}

TEST(LogIo, MissingDirectoryThrows) {
  EXPECT_THROW(read_log_directory("/nonexistent/intellog"), std::runtime_error);
  EXPECT_THROW(read_session_file("/nonexistent/x.log"), std::runtime_error);
}

TEST(LogIo, SimulatedJobRoundTripsThroughDisk) {
  TempDir dir;
  simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen("spark", 12);
  const simsys::JobResult job = simsys::run_job(gen.training_job(), cluster);
  const auto fmt = make_spark_formatter();
  write_log_directory(*fmt, job.sessions, dir.path());
  const auto back = read_log_directory(dir.path(), "spark");
  ASSERT_EQ(back.size(), job.sessions.size());
  std::size_t orig_lines = 0, back_lines = 0;
  for (const auto& s : job.sessions) orig_lines += s.records.size();
  for (const auto& s : back) back_lines += s.records.size();
  EXPECT_EQ(orig_lines, back_lines);
}

TEST(LogIo, ReadersStampSourceFileAndLineProvenance) {
  TempDir dir;
  simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen("spark", 13);
  const simsys::JobResult job = simsys::run_job(gen.training_job(), cluster);
  const auto fmt = make_spark_formatter();
  write_log_directory(*fmt, job.sessions, dir.path());

  const auto back = read_log_directory(dir.path(), "spark");
  ASSERT_EQ(back.size(), job.sessions.size());
  for (const auto& s : back) {
    // Every session remembers which file it came from...
    ASSERT_FALSE(s.source_file.empty());
    EXPECT_NE(s.source_file.find(s.container_id + ".log"), std::string::npos);
    EXPECT_TRUE(std::filesystem::exists(s.source_file)) << s.source_file;
    // ...and every record is addressable: line numbers strictly increase
    // and each byte offset points at the record's own header line.
    std::ifstream raw(s.source_file);
    std::string text((std::istreambuf_iterator<char>(raw)), std::istreambuf_iterator<char>());
    std::uint32_t prev_line = 0;
    for (const auto& rec : s.records) {
      EXPECT_GT(rec.line_no, prev_line);
      prev_line = rec.line_no;
      ASSERT_LT(rec.byte_offset, text.size());
      const std::size_t eol = text.find('\n', rec.byte_offset);
      const std::string raw_line = text.substr(rec.byte_offset, eol - rec.byte_offset);
      // The line at that offset carries the record's content (content is
      // the message part; the raw line has timestamp/level prefixes, and
      // continuations are folded, so compare against the first line).
      const std::string head(rec.content.substr(0, rec.content.find('\n')));
      EXPECT_NE(raw_line.find(head), std::string::npos)
          << s.source_file << ":" << rec.line_no;
    }
  }

  // The single-file reader stamps the same provenance.
  const auto one = read_session_file(dir.path() + "/" + back[0].container_id + ".log", "spark");
  EXPECT_EQ(one.source_file, dir.path() + "/" + back[0].container_id + ".log");
}

TEST(LogIo, RecursiveDiscovery) {
  TempDir dir;
  std::filesystem::create_directories(dir.path() + "/job_0");
  std::filesystem::create_directories(dir.path() + "/job_1");
  const auto fmt = make_spark_formatter();
  Session s;
  s.container_id = "c1";
  {
    LogRecord rec;
    rec.level = "INFO";
    rec.source = "x.Y";
    rec.content = "nested";
    rec.container_id = "c1";
    s.records.push_back(std::move(rec));
  }
  write_session_file(*fmt, s, dir.path() + "/job_0/c1.log");
  s.container_id = "c2";
  write_session_file(*fmt, s, dir.path() + "/job_1/c2.log");
  EXPECT_EQ(read_log_directory(dir.path()).size(), 2u);
}

namespace {

// A directory that exercises every branch of the directory fold: 64+
// parseable files spread over nested job directories, zero-byte files
// (kept as empty sessions), whitespace-only files (dropped silently),
// files in no known format (warned about, counted, quarantined) and files
// with torn and binary lines (quarantined in place).
std::size_t build_mixed_directory(const std::string& root) {
  namespace fs = std::filesystem;
  simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen("spark", 29);
  const auto fmt = make_spark_formatter();
  std::size_t files = 0;
  for (int j = 0; files < 64; ++j) {
    const simsys::JobResult job = simsys::run_job(gen.training_job(), cluster);
    const std::string dir = root + "/job_" + std::to_string(j);
    write_log_directory(*fmt, job.sessions, dir);
    files += job.sessions.size();
  }
  fs::create_directories(root + "/job_0/nested/deeper");
  for (int i = 0; i < 4; ++i) {
    const std::string n = std::to_string(i);
    { std::ofstream empty(root + "/job_" + n + "/container_dead_" + n + ".log"); }
    {
      std::ofstream blank(root + "/job_" + n + "/blank_" + n + ".log");
      blank << "\n\n";
    }
    {
      std::ofstream junk(root + "/job_0/nested/junk_" + n + ".log");
      junk << "\n  no known format " << n << "\nsecond line\n";
    }
    {
      std::ofstream torn(root + "/job_0/nested/deeper/torn_" + n + ".log");
      torn << "19/06/01 06:00:1" << n << " INFO executor.Executor: Running task " << n << "\n"
           << "19/06/01 06:0\n"
           << "\x01\x02\x03\x04\x05\x06 garbage " << n << "\n"
           << "19/06/01 06:00:2" << n << " INFO executor.Executor: Finished task " << n << "\n"
           << "19/06/01 06:00:2" << n << " INFO executor.Executor: Finished task " << n << "\n";
    }
    files += 4;
  }
  return files;
}

// Every field a reader fills, one line per record, so a mismatch shows
// the first differing session.
std::string describe(const std::vector<Session>& sessions) {
  std::ostringstream out;
  for (const Session& s : sessions) {
    out << "session " << s.container_id << " system=" << s.system << " file=" << s.source_file
        << " records=" << s.records.size() << "\n";
    for (const LogRecord& r : s.records) {
      out << "  " << r.line_no << "@" << r.byte_offset << " t=" << r.timestamp_ms << " "
          << r.level << " " << r.source << " [" << r.container_id << "] " << r.content << "\n";
    }
  }
  return out.str();
}

std::string describe(const IngestReport& report) {
  std::ostringstream out;
  out << describe(report.sessions);
  for (const QuarantinedLine& q : report.quarantined) {
    out << "quarantined " << q.file << ":" << q.line_no << "@" << q.byte_offset << " "
        << q.raw_bytes << "B " << q.reason << " " << q.text << "\n";
  }
  const IngestStats& st = report.stats;
  out << "stats lines=" << st.lines_total << " records=" << st.records
      << " continuations=" << st.continuations << " quarantined=" << st.quarantined
      << " dups=" << st.duplicates_dropped << " reordered=" << st.reordered
      << " skipped=" << st.skipped_files << " dropped=" << st.quarantine_dropped << "\n";
  for (const auto& [reason, n] : st.quarantined_by_reason) out << "  " << reason << "=" << n << "\n";
  return out.str();
}

}  // namespace

TEST(LogIo, ParallelReadMatchesSerialAtEveryWidth) {
  TempDir dir;
  ASSERT_GE(build_mixed_directory(dir.path()), 64u);

  std::string want, want_err;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    obs::MetricsRegistry registry;
    obs::set_registry(&registry);
    testing::internal::CaptureStderr();
    const auto sessions = read_log_directory(dir.path(), "spark", jobs);
    const std::string err = testing::internal::GetCapturedStderr();
    obs::set_registry(nullptr);
    const obs::Counter* skipped = registry.find_counter("intellog_ingest_skipped_files_total");
    ASSERT_NE(skipped, nullptr) << "jobs=" << jobs;
    EXPECT_EQ(skipped->value(), 4u) << "jobs=" << jobs;
    const std::string got = describe(sessions);
    if (jobs == 1) {
      want = got;
      want_err = err;
      // The serial read is the reference: zero-byte files are kept, blank
      // and unparseable ones dropped, and each unparseable one warned
      // about once, in path order.
      EXPECT_NE(want.find("session container_dead_0 "), std::string::npos);
      EXPECT_EQ(want.find("session blank_0 "), std::string::npos);
      EXPECT_EQ(want.find("session junk_0 "), std::string::npos);
      for (int i = 0; i < 4; ++i) {
        EXPECT_NE(err.find("junk_" + std::to_string(i) + ".log: no known log format"),
                  std::string::npos);
      }
      EXPECT_LT(err.find("junk_0.log"), err.find("junk_3.log"));
      continue;
    }
    EXPECT_EQ(got, want) << "jobs=" << jobs;
    EXPECT_EQ(err, want_err) << "jobs=" << jobs;
  }
}

TEST(LogIo, ParallelResilientReadMatchesSerialAtEveryWidth) {
  TempDir dir;
  ASSERT_GE(build_mixed_directory(dir.path()), 64u);
  // A second pass with a tight channel cap: rotation keeps the newest
  // quarantined lines in path order, so it must drop the same ones.
  IngestOptions tight;
  tight.max_quarantined = 5;
  for (const IngestOptions& options : {IngestOptions{}, tight}) {
    std::string want, want_err;
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      testing::internal::CaptureStderr();
      const IngestReport report = read_log_directory_resilient(dir.path(), "spark", options, jobs);
      const std::string err = testing::internal::GetCapturedStderr();
      const std::string got = describe(report);
      if (jobs == 1) {
        want = got;
        want_err = err;
        EXPECT_EQ(report.stats.skipped_files, 4u);
        EXPECT_GT(report.stats.quarantined, 8u);
        EXPECT_GT(report.stats.duplicates_dropped, 0u);
        EXPECT_EQ(report.quarantined.size(),
                  std::min(options.max_quarantined, report.stats.quarantined));
        continue;
      }
      EXPECT_EQ(got, want) << "jobs=" << jobs << " cap=" << options.max_quarantined;
      EXPECT_EQ(err, want_err) << "jobs=" << jobs << " cap=" << options.max_quarantined;
    }
  }
}

TEST(HwGraphDot, ExportShape) {
  core::IntelLog il;
  simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen("spark", 3);
  std::vector<Session> training;
  for (int i = 0; i < 5; ++i) {
    simsys::JobResult job = simsys::run_job(gen.training_job(), cluster);
    for (auto& sess : job.sessions) training.push_back(std::move(sess));
  }
  il.train(training);
  const std::string dot = il.hw_graph().to_dot();
  EXPECT_NE(dot.find("digraph hwgraph"), std::string::npos);
  EXPECT_NE(dot.find("g_block"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // BEFORE edges
  EXPECT_EQ(dot.back(), '\n');
}
