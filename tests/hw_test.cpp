// Tests for the hardware component models: memory latency math and
// contention modes, and the master-submission word bus timing (including
// the paper's worked 10-cycle / 14-cycle examples).

#include <gtest/gtest.h>

#include <vector>

#include "hw/bus.hpp"
#include "hw/memory.hpp"
#include "sim/simulator.hpp"

namespace nexuspp {
namespace {

using hw::BusConfig;
using hw::ContentionModel;
using hw::Memory;
using hw::MemoryConfig;
using sim::Co;
using sim::Simulator;
using sim::Time;

TEST(MemoryModel, TransferTimeMatchesChunkMath) {
  Simulator s;
  Memory mem(s, MemoryConfig{});
  EXPECT_EQ(mem.transfer_time(0), 0);
  EXPECT_EQ(mem.transfer_time(1), sim::ns(12));    // one 128 B chunk
  EXPECT_EQ(mem.transfer_time(128), sim::ns(12));
  EXPECT_EQ(mem.transfer_time(129), sim::ns(24));
  EXPECT_EQ(mem.transfer_time(1024), sim::ns(96));  // 8 chunks
}

TEST(MemoryModel, PeakBandwidthMatchesPaper) {
  // 128 bytes / 12 ns / bank; 32 banks => 10.67 GB/s per Table IV... the
  // paper quotes the aggregate: 128 B / 12 ns = 10.67 GB/s for the chip.
  Simulator s;
  Memory mem(s, MemoryConfig{});
  const double gbps = 128.0 / 12.0;  // bytes per ns == GB/s
  EXPECT_NEAR(gbps, 10.67, 0.01);
}

Co<void> do_transfer(Simulator& s, Memory& mem, std::uint64_t bytes,
                     std::vector<Time>& completions) {
  co_await mem.transfer(0, bytes);
  completions.push_back(s.now());
}

TEST(MemoryModel, ContentionFreeRunsConcurrently) {
  Simulator s;
  MemoryConfig cfg;
  cfg.contention = ContentionModel::kNone;
  Memory mem(s, cfg);
  std::vector<Time> done;
  for (int i = 0; i < 64; ++i) s.spawn(do_transfer(s, mem, 128, done));
  s.run();
  ASSERT_EQ(done.size(), 64u);
  for (Time t : done) EXPECT_EQ(t, sim::ns(12));  // all in parallel
}

TEST(MemoryModel, PortContentionLimitsConcurrency) {
  Simulator s;
  MemoryConfig cfg;  // 32 ports
  Memory mem(s, cfg);
  std::vector<Time> done;
  for (int i = 0; i < 64; ++i) s.spawn(do_transfer(s, mem, 128, done));
  s.run();
  ASSERT_EQ(done.size(), 64u);
  // First 32 finish at 12 ns, the rest at 24 ns.
  int at12 = 0;
  int at24 = 0;
  for (Time t : done) {
    if (t == sim::ns(12)) ++at12;
    if (t == sim::ns(24)) ++at24;
  }
  EXPECT_EQ(at12, 32);
  EXPECT_EQ(at24, 32);
  EXPECT_EQ(mem.stats().max_concurrency, 64);  // arrivals
  EXPECT_GT(mem.stats().contention_wait, 0);
}

TEST(MemoryModel, BankedModeStripesChunks) {
  Simulator s;
  MemoryConfig cfg;
  cfg.contention = ContentionModel::kBanked;
  cfg.banks = 2;
  Memory mem(s, cfg);
  std::vector<Time> done;
  // Two 2-chunk transfers at the same address: they interleave on the two
  // banks; each chunk is serialized per bank.
  s.spawn(do_transfer(s, mem, 256, done));
  s.spawn(do_transfer(s, mem, 256, done));
  s.run();
  ASSERT_EQ(done.size(), 2u);
  // Same-address transfers fight for the same banks chunk by chunk: the
  // first pipelines cleanly (chunk on bank 0 then bank 1: 24 ns); the
  // second trails one bank-slot behind (36 ns).
  EXPECT_EQ(done[0], sim::ns(24));
  EXPECT_EQ(done[1], sim::ns(36));
  EXPECT_GT(mem.stats().contention_wait, 0);
}

TEST(MemoryModel, StatsAccumulate) {
  Simulator s;
  Memory mem(s, MemoryConfig{});
  std::vector<Time> done;
  s.spawn(do_transfer(s, mem, 1000, done));
  s.spawn(do_transfer(s, mem, 0, done));  // zero-byte: free
  s.run();
  EXPECT_EQ(mem.stats().transfers, 1u);  // zero-byte transfers don't count
  EXPECT_EQ(mem.stats().bytes, 1000u);
}

TEST(MemoryModel, ConfigValidation) {
  Simulator s;
  MemoryConfig bad;
  bad.banks = 0;
  EXPECT_THROW(Memory(s, bad), std::invalid_argument);
  bad = MemoryConfig{};
  bad.chunk_bytes = 0;
  EXPECT_THROW(Memory(s, bad), std::invalid_argument);
  bad = MemoryConfig{};
  bad.chunk_latency = 0;
  EXPECT_THROW(Memory(s, bad), std::invalid_argument);
}

TEST(BusModel, PaperWorkedExamples) {
  // "a task with 4 parameters takes 10 cycles (20ns), whereas an
  //  8-parameter task takes 14 cycles (28ns)" — those figures require
  // 1 cycle/word (5-cycle handshake, words = 1 + P); the paper's *stated*
  // bandwidth (2 GB/s) instead implies the default 2 cycles/word. Both are
  // supported; this checks the worked-example configuration.
  BusConfig example;
  example.cycles_per_word = 1;
  EXPECT_EQ(example.transfer_cycles(1 + 4), 10u);
  EXPECT_EQ(example.transfer_cycles(1 + 8), 14u);
  EXPECT_EQ(example.transfer_time(1 + 4), sim::ns(20));
  EXPECT_EQ(example.transfer_time(1 + 8), sim::ns(28));
}

TEST(BusModel, DefaultMatchesStatedBandwidth) {
  // 8 bytes per word / (2 cycles x 2 ns) = 2 GB/s, Table IV's bus rate;
  // a descriptor of 5 words takes 5 + 5 x 2 = 15 cycles.
  const BusConfig bus;
  const double bytes_per_ns =
      8.0 / sim::to_ns(bus.transfer_time(1) - bus.transfer_time(0));
  EXPECT_NEAR(bytes_per_ns, 2.0, 1e-9);
  EXPECT_EQ(bus.transfer_time(5), sim::ns(30));
}

TEST(BusModel, ConfigValidation) {
  EXPECT_NO_THROW(BusConfig{}.validate());
  BusConfig bad;
  bad.word_bytes = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = BusConfig{};
  bad.cycle = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = BusConfig{};
  bad.cycles_per_word = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace nexuspp
