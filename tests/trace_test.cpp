// Tests for the trace layer: record model, text/binary round trips,
// malformed-input errors, synthetic timing distributions and summaries.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "trace/io.hpp"
#include "trace/synth.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace nexuspp {
namespace {

using trace::TaskRecord;

std::vector<TaskRecord> sample_tasks() {
  std::vector<TaskRecord> tasks;
  TaskRecord a;
  a.serial = 0;
  a.fn = 0xABCD;
  a.exec_time = sim::ns_f(11'800.25);
  a.read_bytes = 4096;
  a.write_bytes = 128;
  a.params = {core::in(0x1A, 4), core::out(0x1B, 64),
              core::inout(0x2C, 1024)};
  TaskRecord b;
  b.serial = 1;
  b.fn = 7;
  b.exec_time = sim::us(2);
  b.params = {};  // parameterless task is legal
  tasks.push_back(a);
  tasks.push_back(b);
  return tasks;
}

TEST(TraceIo, TextRoundTrip) {
  const trace::Trace t{{}, sample_tasks()};
  std::stringstream ss;
  trace::write_text(ss, t);
  EXPECT_EQ(trace::read_text_trace(ss), t);
}

TEST(TraceIo, BinaryRoundTrip) {
  const trace::Trace t{{}, sample_tasks()};
  std::stringstream ss;
  trace::write_binary(ss, t);
  EXPECT_EQ(trace::read_binary_trace(ss), t);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  std::stringstream ss;
  trace::write_text(ss, trace::Trace{});
  EXPECT_TRUE(trace::read_text_trace(ss).tasks.empty());
  std::stringstream bs;
  trace::write_binary(bs, trace::Trace{});
  EXPECT_TRUE(trace::read_binary_trace(bs).tasks.empty());
}

TEST(TraceIo, RejectsMissingHeader) {
  std::stringstream ss("task 0 1 2 3 4 0\n");
  EXPECT_THROW((void)trace::read_text_trace(ss), trace::TraceIoError);
}

TEST(TraceIo, RejectsMalformedTaskLine) {
  std::stringstream ss("nexus-trace v1\ntask 0 nope\n");
  EXPECT_THROW((void)trace::read_text_trace(ss), trace::TraceIoError);
}

TEST(TraceIo, RejectsParamBeforeTask) {
  std::stringstream ss("nexus-trace v1\nparam 1a 4 in\n");
  EXPECT_THROW((void)trace::read_text_trace(ss), trace::TraceIoError);
}

TEST(TraceIo, RejectsBadAccessMode) {
  std::stringstream ss(
      "nexus-trace v1\ntask 0 1 10 0 0 1\nparam 1a 4 sideways\n");
  EXPECT_THROW((void)trace::read_text_trace(ss), trace::TraceIoError);
}

TEST(TraceIo, RejectsMissingParams) {
  std::stringstream ss("nexus-trace v1\ntask 0 1 10 0 0 2\nparam 1a 4 in\n");
  EXPECT_THROW((void)trace::read_text_trace(ss), trace::TraceIoError);
}

TEST(TraceIo, RejectsExtraParams) {
  std::stringstream ss(
      "nexus-trace v1\ntask 0 1 10 0 0 0\nparam 1a 4 in\n");
  EXPECT_THROW((void)trace::read_text_trace(ss), trace::TraceIoError);
}

TEST(TraceIo, RejectsBadBinaryMagic) {
  std::stringstream ss("GARBAGE!");
  EXPECT_THROW((void)trace::read_binary_trace(ss), trace::TraceIoError);
}

TEST(TraceIo, RejectsTruncatedBinary) {
  std::stringstream ss;
  trace::write_binary(ss, trace::Trace{{}, sample_tasks()});
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW((void)trace::read_binary_trace(truncated),
               trace::TraceIoError);
}

TEST(TraceIo, FileSaveLoadBothFormats) {
  const auto tasks = sample_tasks();
  const std::string text_path = "/tmp/nexuspp_trace_test.nxt";
  const std::string bin_path = "/tmp/nexuspp_trace_test.nxb";
  trace::save(text_path, trace::Trace{{}, tasks});
  trace::save(bin_path, trace::Trace{{}, tasks});
  EXPECT_EQ(trace::load_trace(text_path).tasks, tasks);
  EXPECT_EQ(trace::load_trace(bin_path).tasks, tasks);
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
}

TEST(TraceIo, LoadMissingFileThrows) {
  EXPECT_THROW((void)trace::load_trace("/nonexistent/path.nxt"),
               trace::TraceIoError);
}

trace::Trace sample_trace() {
  trace::Trace t;
  t.tasks = sample_tasks();
  t.meta.set(trace::TraceMeta::kWorkload, "tiled-cholesky:tiles=4");
  t.meta.set(trace::TraceMeta::kEngine, "nexus++");
  t.meta.set("custom-key", "free text value, spaces ok");
  return t;
}

template <typename T>
void put_raw_bytes(std::string& buf, T value) {
  buf.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

TEST(TraceMetaModel, SetReplacesAndValidates) {
  trace::TraceMeta meta;
  meta.set("engine", "nexus++");
  meta.set("engine", "software-rts");
  ASSERT_EQ(meta.entries().size(), 1u);
  EXPECT_EQ(meta.get("engine"), "software-rts");
  EXPECT_EQ(meta.get("absent"), std::nullopt);
  EXPECT_THROW(meta.set("", "x"), std::invalid_argument);
  EXPECT_THROW(meta.set("two words", "x"), std::invalid_argument);
  EXPECT_THROW(meta.set("key", "line\nbreak"), std::invalid_argument);
}

TEST(TraceIoV2, MetaRoundTripsText) {
  const auto t = sample_trace();
  std::stringstream ss;
  trace::write_text(ss, t);
  EXPECT_EQ(trace::read_text_trace(ss), t);
}

TEST(TraceIoV2, MetaRoundTripsBinary) {
  const auto t = sample_trace();
  std::stringstream ss;
  trace::write_binary(ss, t);
  EXPECT_EQ(trace::read_binary_trace(ss), t);
}

TEST(TraceIoV2, WriterEmitsCurrentVersionHeader) {
  std::stringstream ss;
  trace::write_text(ss, trace::Trace{{}, sample_tasks()});
  std::string first_line;
  std::getline(ss, first_line);
  EXPECT_EQ(first_line,
            "nexus-trace v" + std::to_string(trace::kFormatVersion));
}

TEST(TraceIoV2, ReadsV1TextWithoutMeta) {
  // A v1 file as the previous writer produced it.
  std::stringstream ss(
      "nexus-trace v1\n"
      "# tasks: 1\n"
      "task 0 7 2000 0 0 1\n"
      "param 1a 4 in\n");
  const auto t = trace::read_text_trace(ss);
  EXPECT_TRUE(t.meta.empty());
  ASSERT_EQ(t.tasks.size(), 1u);
  EXPECT_EQ(t.tasks[0].params[0].addr, 0x1Au);
}

TEST(TraceIoV2, ReadsV1Binary) {
  std::string buf("NXTRC1\0\0", 8);
  put_raw_bytes<std::uint64_t>(buf, 1);    // count
  put_raw_bytes<std::uint64_t>(buf, 5);    // serial
  put_raw_bytes<std::uint64_t>(buf, 9);    // fn
  put_raw_bytes<sim::Time>(buf, sim::us(2));
  put_raw_bytes<std::uint64_t>(buf, 128);  // read bytes
  put_raw_bytes<std::uint64_t>(buf, 256);  // write bytes
  put_raw_bytes<std::uint32_t>(buf, 1);    // n params
  put_raw_bytes<std::uint64_t>(buf, 0x2C); // addr
  put_raw_bytes<std::uint32_t>(buf, 64);   // size
  put_raw_bytes<std::uint8_t>(buf, 2);     // inout
  std::stringstream ss(buf);
  const auto t = trace::read_binary_trace(ss);
  EXPECT_TRUE(t.meta.empty());
  ASSERT_EQ(t.tasks.size(), 1u);
  EXPECT_EQ(t.tasks[0].serial, 5u);
  EXPECT_EQ(t.tasks[0].params[0].mode, core::AccessMode::kInOut);
}

TEST(TraceIoV2, RejectsNewerTextVersion) {
  std::stringstream ss("nexus-trace v3\n");
  try {
    (void)trace::read_text_trace(ss);
    FAIL() << "expected TraceIoError";
  } catch (const trace::TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find("v3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos);
  }
}

TEST(TraceIoV2, RejectsNewerBinaryVersion) {
  std::string buf("NXTRC7\0\0", 8);
  put_raw_bytes<std::uint64_t>(buf, 0);
  std::stringstream ss(buf);
  try {
    (void)trace::read_binary_trace(ss);
    FAIL() << "expected TraceIoError";
  } catch (const trace::TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find("v7"), std::string::npos);
  }
}

TEST(TraceIoV2, RejectsMalformedVersionHeader) {
  // Spec §4: the version is plain digits — no sign, space, or suffix.
  for (const char* header :
       {"nexus-trace vX\n", "nexus-trace v2 extra\n", "nexus-trace v+2\n",
        "nexus-trace v 2\n", "nexus-trace v-1\n", "nexus-trace v\n"}) {
    std::stringstream ss(header);
    EXPECT_THROW((void)trace::read_text_trace(ss), trace::TraceIoError)
        << header;
  }
}

TEST(TraceIoV2, NonDigitMagicByteIsBadMagicNotNewerVersion) {
  std::string buf("NXTRCX\0\0", 8);
  std::stringstream ss(buf);
  try {
    (void)trace::read_binary_trace(ss);
    FAIL() << "expected TraceIoError";
  } catch (const trace::TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIoV2, RejectsMetaInV1File) {
  std::stringstream ss("nexus-trace v1\nmeta engine nexus++\n");
  EXPECT_THROW((void)trace::read_text_trace(ss), trace::TraceIoError);
}

TEST(TraceIoV2, RejectsMetaAfterFirstTask) {
  std::stringstream ss(
      "nexus-trace v2\ntask 0 1 10 0 0 0\nmeta engine nexus++\n");
  EXPECT_THROW((void)trace::read_text_trace(ss), trace::TraceIoError);
}

TEST(TraceIoV2, RejectsMetaWithoutKey) {
  std::stringstream ss("nexus-trace v2\nmeta\n");
  EXPECT_THROW((void)trace::read_text_trace(ss), trace::TraceIoError);
}

TEST(TraceIoV2, RejectsImplausibleBinaryMetaLength) {
  std::string buf("NXTRC2\0\0", 8);
  put_raw_bytes<std::uint32_t>(buf, 1);            // one meta entry
  put_raw_bytes<std::uint32_t>(buf, 0xFFFF'FFFF);  // absurd key length
  std::stringstream ss(buf);
  try {
    (void)trace::read_binary_trace(ss);
    FAIL() << "expected TraceIoError";
  } catch (const trace::TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find("implausible"), std::string::npos);
  }
}

TEST(TraceIoV2, RejectsTruncatedBinaryMetaSection) {
  const auto t = sample_trace();
  std::stringstream full;
  trace::write_binary(full, t);
  // Cut inside the meta section (right after the magic + meta count).
  std::string data = full.str().substr(0, 14);
  std::stringstream truncated(data);
  EXPECT_THROW((void)trace::read_binary_trace(truncated),
               trace::TraceIoError);
}

TEST(TraceIoV2, RejectsTrailingBinaryGarbage) {
  std::stringstream ss;
  trace::write_binary(ss, trace::Trace{{}, sample_tasks()});
  ss << "extra";
  EXPECT_THROW((void)trace::read_binary_trace(ss), trace::TraceIoError);
}

TEST(TraceIoV2, RejectsCorruptTaskCount) {
  // Count claims 2^32 tasks but the stream ends immediately: must throw a
  // descriptive error (and must not try to reserve that much memory).
  std::string buf("NXTRC2\0\0", 8);
  put_raw_bytes<std::uint32_t>(buf, 0);                 // no meta
  put_raw_bytes<std::uint64_t>(buf, 0x1'0000'0000ull);  // corrupt count
  std::stringstream ss(buf);
  try {
    (void)trace::read_binary_trace(ss);
    FAIL() << "expected TraceIoError";
  } catch (const trace::TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find("end of stream"),
              std::string::npos);
  }
}

TEST(TraceIoV2, LoadErrorNamesTheFile) {
  const std::string path = "/tmp/nexuspp_trace_badfile.nxt";
  {
    std::ofstream os(path);
    os << "nexus-trace v2\ntask 0 broken\n";
  }
  try {
    (void)trace::load_trace(path);
    FAIL() << "expected TraceIoError";
  } catch (const trace::TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(TraceIoV2, SaveLoadTracePreservesMetaBothFormats) {
  const auto t = sample_trace();
  for (const char* path : {"/tmp/nexuspp_trace_meta.nxt",
                           "/tmp/nexuspp_trace_meta.nxb"}) {
    trace::save(path, t);
    EXPECT_EQ(trace::load_trace(path), t) << path;
    std::remove(path);
  }
}

TEST(TraceStream, VectorStreamDelivery) {
  auto stream = trace::make_vector_stream(sample_tasks());
  EXPECT_EQ(stream->total_tasks(), 2u);
  auto first = stream->next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->serial, 0u);
  auto second = stream->next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->serial, 1u);
  EXPECT_FALSE(stream->next().has_value());
  EXPECT_FALSE(stream->next().has_value());  // stays exhausted
}

TEST(TraceSummary, ComputesMeans) {
  const auto s = trace::summarize(sample_tasks());
  EXPECT_EQ(s.tasks, 2u);
  EXPECT_NEAR(s.mean_exec_ns, (11'800.25 + 2000.0) / 2.0, 0.01);
  EXPECT_DOUBLE_EQ(s.mean_read_bytes, 2048.0);
  EXPECT_DOUBLE_EQ(s.mean_params, 1.5);
  EXPECT_EQ(s.max_params, 3u);
  EXPECT_EQ(trace::summarize({}).tasks, 0u);
}

TEST(TraceSummary, OverlapCensus) {
  // Aligned, uniform blocks: no partial overlaps.
  std::vector<trace::TaskRecord> aligned(2);
  aligned[0].params = {core::out(0x1000, 64), core::in(0x1040, 64)};
  aligned[1].params = {core::in(0x1000, 64)};  // same base: not "partial"
  auto s = trace::summarize(aligned);
  EXPECT_EQ(s.distinct_bases, 2u);
  EXPECT_EQ(s.partially_overlapping_bases, 0u);

  // A halo-style read into the middle of another base's range: both bases
  // of the intersecting pair count.
  std::vector<trace::TaskRecord> ragged(2);
  ragged[0].params = {core::out(0x1000, 64)};
  ragged[1].params = {core::in(0x1020, 32), core::in(0x2000, 16)};
  s = trace::summarize(ragged);
  EXPECT_EQ(s.distinct_bases, 3u);
  EXPECT_EQ(s.partially_overlapping_bases, 2u);

  // A long range spanning several later bases marks all of them.
  std::vector<trace::TaskRecord> spanning(1);
  spanning[0].params = {core::out(0x1000, 256), core::in(0x1040, 16),
                        core::in(0x1080, 16), core::in(0x2000, 16)};
  s = trace::summarize(spanning);
  EXPECT_EQ(s.partially_overlapping_bases, 3u);
}

TEST(TimingModel, ExecMatchesPublishedMean) {
  trace::TimingModel model;  // defaults: 11.8 us exec, 7.5 us memory
  util::Rng rng(1);
  util::RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.add(sim::to_ns(model.draw_exec(rng)));
  }
  EXPECT_NEAR(stats.mean(), 11'800.0, 120.0);
  // Gamma(4): CV = 0.5.
  EXPECT_NEAR(stats.stddev() / stats.mean(), 0.5, 0.02);
}

TEST(TimingModel, MemBytesReproduceMeanDuration) {
  trace::TimingModel model;
  util::Rng rng(2);
  util::RunningStats total_ns;
  for (int i = 0; i < 100000; ++i) {
    const auto mem = model.draw_mem(rng);
    // Replay through the memory model equation: 12 ns per 128-byte chunk.
    const double chunks_r = static_cast<double>(mem.read_bytes) / 128.0;
    const double chunks_w = static_cast<double>(mem.write_bytes) / 128.0;
    total_ns.add((chunks_r + chunks_w) * 12.0);
  }
  EXPECT_NEAR(total_ns.mean(), 7'500.0, 120.0);
}

TEST(TimingModel, DeterministicPerSeed) {
  trace::TimingModel model;
  util::Rng a(5);
  util::Rng b(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(model.draw_exec(a), model.draw_exec(b));
  }
}

}  // namespace
}  // namespace nexuspp
