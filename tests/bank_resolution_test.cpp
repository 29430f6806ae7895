// Banked dependence resolution, untimed layer.
//
// - BankPartition: home-bank interleave, canonical multi-bank touch sets.
// - BankedTable: capacity split, aggregation, validation.
// - Differential property tests: BankedResolver over every bank count in
//   {1, 2, 4, 8, 16} x both MatchModes must admit the same per-step ready
//   behaviour as the unbounded GraphOracle on randomized task streams
//   (exact grant order at banks == 1; per-finish ready *sets* above that,
//   where a spanning access legitimately splits its dependence across
//   banks and so may drain in a different in-round order).
// - Two-phase registration: a spanning range-mode parameter that cannot
//   get slots in every touched bank fails with kNeedSpace leaving *all*
//   banks untouched, and succeeds verbatim after space frees.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "bank/banked_table.hpp"
#include "bank/partition.hpp"
#include "bank/resolver.hpp"
#include "core/oracle.hpp"
#include "core/task_pool.hpp"
#include "util/rng.hpp"

namespace nexuspp {
namespace {

using bank::BankedResolver;
using bank::BankedTable;
using bank::BankedTableConfig;
using bank::BankPartition;
using core::AccessMode;
using core::GraphOracle;
using core::MatchMode;
using core::Param;
using core::TaskDescriptor;
using core::TaskId;
using core::TaskPool;

// --- BankPartition ------------------------------------------------------------

TEST(BankPartition, HomeBankIsFixedPerRegion) {
  BankPartition p{4, 256};
  p.validate();
  // Every address in a region shares its home; the home is a valid bank.
  for (core::Addr region = 0; region < 64; ++region) {
    const auto home = p.bank_of(region * 256);
    EXPECT_LT(home, 4u);
    EXPECT_EQ(p.bank_of(region * 256 + 255), home);
    EXPECT_EQ(home, static_cast<std::uint32_t>(
                        BankPartition::mix_region(region) % 4));
  }
}

TEST(BankPartition, HashedInterleaveSpreadsStridedAddresses) {
  // The pathology the hash exists for: tiles allocated at a stride that is
  // a multiple of banks * region_bytes would all share one bank under a
  // plain modulo interleave. 64 KiB-strided bases over 16 banks must
  // spread widely instead.
  BankPartition p{16, 256};
  std::set<std::uint32_t> hit;
  for (core::Addr i = 0; i < 64; ++i) hit.insert(p.bank_of(i * 65536));
  EXPECT_GE(hit.size(), 8u);
  // Dense consecutive regions also use every bank.
  std::set<std::uint32_t> dense;
  for (core::Addr i = 0; i < 1024; ++i) dense.insert(p.bank_of(i * 256));
  EXPECT_EQ(dense.size(), 16u);
}

TEST(BankPartition, BanksForSpanningRanges) {
  BankPartition p{4, 256};
  // Inside one region: exactly the home bank.
  EXPECT_EQ(p.banks_for(0, 256), (std::vector<std::uint32_t>{p.bank_of(0)}));
  // Zero size still has a home.
  EXPECT_EQ(p.banks_for(300, 0), (std::vector<std::uint32_t>{p.bank_of(300)}));
  // Crossing one boundary: both homes, canonical ascending order, deduped.
  {
    const auto touched = p.banks_for(200, 100);  // regions 0 and 1
    std::vector<std::uint32_t> expected{p.bank_of(0), p.bank_of(256)};
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    EXPECT_EQ(touched, expected);
  }
  // A span covering >= banks regions touches every bank.
  EXPECT_EQ(p.banks_for(256, 4 * 256),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(BankPartition, SpanPredicateAgreesWithTouchedSet) {
  // The resolver's allocation-free fast path relies on this equivalence:
  // param_spans_banks(p) iff banks_for_param(p) has more than one element,
  // and a non-spanning param's single touched bank is bank_of(addr).
  util::Rng rng(11);
  BankPartition p{8, 64};
  for (int i = 0; i < 5000; ++i) {
    const core::Addr a = rng.below(1u << 14);
    const auto size = static_cast<std::uint32_t>(rng.below(1200));
    const Param param{a, size, AccessMode::kInOut};
    for (const auto mode : {MatchMode::kBaseAddr, MatchMode::kRange}) {
      const auto touched = p.banks_for_param(param, mode);
      EXPECT_EQ(p.param_spans_banks(param, mode), touched.size() > 1);
      if (touched.size() == 1) {
        EXPECT_EQ(touched.front(), p.bank_of(a));
      }
    }
  }
}

TEST(BankPartition, ValidationRejectsBadShapes) {
  EXPECT_THROW(BankPartition({0, 256}).validate(), std::invalid_argument);
  EXPECT_THROW(BankPartition({4, 0}).validate(), std::invalid_argument);
  EXPECT_THROW(BankPartition({4, 100}).validate(), std::invalid_argument);
}

TEST(BankPartition, OverlappingRangesAlwaysShareABank) {
  // The hazard-preservation invariant of the partition: any two
  // intersecting intervals have at least one common touched bank.
  util::Rng rng(7);
  BankPartition p{8, 64};
  for (int i = 0; i < 2000; ++i) {
    const core::Addr a = rng.below(4096);
    const auto sa = static_cast<std::uint32_t>(1 + rng.below(700));
    const core::Addr b = rng.below(4096);
    const auto sb = static_cast<std::uint32_t>(1 + rng.below(700));
    if (!core::ranges_overlap(a, sa, b, sb)) continue;
    const auto ba = p.banks_for(a, sa);
    const auto bb = p.banks_for(b, sb);
    bool shared = false;
    for (const auto x : ba) {
      for (const auto y : bb) shared = shared || x == y;
    }
    EXPECT_TRUE(shared) << "[" << a << "+" << sa << ") vs [" << b << "+"
                        << sb << ")";
  }
}

// --- BankedTable --------------------------------------------------------------

TEST(BankedTable, SplitsCapacityEvenly) {
  BankedTableConfig cfg;
  cfg.table.capacity = 100;
  cfg.partition.banks = 8;
  BankedTable t(cfg);
  EXPECT_EQ(t.bank_count(), 8u);
  EXPECT_EQ(t.bank(0).capacity(), 13u);  // ceil(100 / 8)
  EXPECT_TRUE(t.empty());
}

TEST(BankedTable, RejectsMoreBanksThanEntries) {
  BankedTableConfig cfg;
  cfg.table.capacity = 4;
  cfg.partition.banks = 8;
  EXPECT_THROW(BankedTable{cfg}, std::invalid_argument);
}

// --- Differential harness -----------------------------------------------------

struct BankedStreamConfig {
  std::uint64_t seed = 1;
  std::uint32_t banks = 4;
  MatchMode mode = MatchMode::kBaseAddr;
  int num_tasks = 220;
  int addr_space = 12;   ///< distinct base slots
  int max_params = 4;
  double write_prob = 0.4;
  double finish_prob = 0.5;
  /// Range mode: sizes up to this many bytes (several 64 B home regions,
  /// so accesses regularly span banks).
  std::uint32_t max_size = 300;
};

class BankedDifferentialHarness {
 public:
  explicit BankedDifferentialHarness(const BankedStreamConfig& cfg)
      : cfg_(cfg),
        rng_(cfg.seed),
        tp_({4096, 4}),  // small descriptors force dummy tasks
        dt_(make_table_config(cfg)),
        resolver_(tp_, dt_),
        oracle_(cfg.mode) {}

  void run() {
    int submitted = 0;
    while (submitted < cfg_.num_tasks || !hw_ready_.empty() ||
           !running_.empty()) {
      const bool can_submit = submitted < cfg_.num_tasks;
      const bool do_finish =
          !hw_ready_.empty() && (!can_submit || rng_.chance(cfg_.finish_prob));
      if (do_finish) {
        finish_one();
      } else if (can_submit) {
        submit_one(submitted++);
      } else {
        ASSERT_FALSE(true) << "stuck: nothing runnable and nothing to submit";
        return;
      }
    }
    EXPECT_EQ(oracle_.pending_count(), 0u);
    EXPECT_EQ(oracle_.tracked_addr_count(), 0u);
    EXPECT_TRUE(dt_.empty());
    EXPECT_TRUE(tp_.empty());
  }

 private:
  using Key = GraphOracle::Key;

  static BankedTableConfig make_table_config(const BankedStreamConfig& cfg) {
    BankedTableConfig out;
    out.table.capacity = 4096;
    out.table.kick_off_capacity = 3;  // force dummy entries
    out.table.match_mode = cfg.mode;
    out.partition.banks = cfg.banks;
    out.partition.region_bytes = 64;
    return out;
  }

  TaskDescriptor random_descriptor(Key key) {
    TaskDescriptor td;
    td.fn = key;
    td.serial = key;
    const int n = 1 + static_cast<int>(rng_.below(
                          static_cast<std::uint64_t>(cfg_.max_params)));
    std::set<core::Addr> used;
    for (int p = 0; p < n; ++p) {
      core::Addr a;
      do {
        a = 0x1000 + 64 * rng_.below(
                         static_cast<std::uint64_t>(cfg_.addr_space));
        if (cfg_.mode == MatchMode::kRange) a += rng_.below(16);
      } while (used.count(a));
      used.insert(a);
      AccessMode mode = AccessMode::kIn;
      if (rng_.chance(cfg_.write_prob)) {
        mode = rng_.chance(0.5) ? AccessMode::kOut : AccessMode::kInOut;
      }
      const std::uint32_t size =
          cfg_.mode == MatchMode::kRange
              ? static_cast<std::uint32_t>(1 + rng_.below(cfg_.max_size))
              : 64;
      td.params.push_back(Param{a, size, mode});
    }
    return td;
  }

  void submit_one(int serial) {
    const Key key = static_cast<Key>(serial);
    const TaskDescriptor td = random_descriptor(key);

    const bool oracle_ready = oracle_.submit(key, td.params);
    if (oracle_ready) oracle_ready_.insert(key);

    auto ins = tp_.insert(td);
    ASSERT_TRUE(ins.has_value()) << "task pool exhausted (test sizing bug)";
    auto sub = resolver_.submit(ins->id);
    ASSERT_FALSE(sub.stalled) << "dependence banks exhausted (sizing bug)";
    key_to_id_[key] = ins->id;
    id_to_key_[ins->id] = key;
    if (sub.ready) hw_ready_.insert(key);

    EXPECT_EQ(sub.ready, oracle_ready)
        << "readiness mismatch for task " << key;
    ASSERT_EQ(hw_ready_, oracle_ready_) << "ready sets diverged";
    running_.insert(key);
  }

  void finish_one() {
    ASSERT_FALSE(hw_ready_.empty());
    auto it = hw_ready_.begin();
    std::advance(it, static_cast<long>(rng_.below(hw_ready_.size())));
    const Key key = *it;

    const TaskId id = key_to_id_.at(key);
    auto hw_newly = resolver_.finish(id);
    tp_.free_task(id);
    auto oracle_newly = oracle_.finish(key);

    std::vector<Key> hw_keys;
    hw_keys.reserve(hw_newly.now_ready.size());
    for (TaskId t : hw_newly.now_ready) hw_keys.push_back(id_to_key_.at(t));
    if (cfg_.banks == 1) {
      // Single bank == the monolithic resolver: grant order exact.
      EXPECT_EQ(hw_keys, oracle_newly)
          << "grant order diverged after finishing " << key;
    } else {
      // A spanning access drains once per touched bank, so in-round order
      // may shuffle — but the set of tasks a finish readies must match.
      EXPECT_EQ(std::set<Key>(hw_keys.begin(), hw_keys.end()),
                std::set<Key>(oracle_newly.begin(), oracle_newly.end()))
          << "ready set diverged after finishing " << key;
    }

    hw_ready_.erase(key);
    oracle_ready_.erase(key);
    running_.erase(key);
    key_to_id_.erase(key);
    id_to_key_.erase(id);
    for (Key k : oracle_newly) oracle_ready_.insert(k);
    for (Key k : hw_keys) hw_ready_.insert(k);
    ASSERT_EQ(hw_ready_, oracle_ready_) << "ready sets diverged";
  }

  BankedStreamConfig cfg_;
  util::Rng rng_;
  TaskPool tp_;
  BankedTable dt_;
  BankedResolver resolver_;
  GraphOracle oracle_;

  std::map<Key, TaskId> key_to_id_;
  std::map<TaskId, Key> id_to_key_;
  std::set<Key> hw_ready_;
  std::set<Key> oracle_ready_;
  std::set<Key> running_;
};

struct DifferentialCase {
  std::uint32_t banks;
  MatchMode mode;
};

class BankedDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

TEST_P(BankedDifferential, RandomStreamsMatchOracleOverEightSeeds) {
  const auto [banks, mode_int] = GetParam();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    BankedStreamConfig cfg;
    cfg.seed = seed;
    cfg.banks = banks;
    cfg.mode = static_cast<MatchMode>(mode_int);
    BankedDifferentialHarness h(cfg);
    h.run();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBankCounts, BankedDifferential,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u, 16u),
                       ::testing::Values(0, 1)),
    [](const auto& info) {
      return "banks" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == 0 ? "_base" : "_range");
    });

// --- Two-phase registration atomicity -----------------------------------------

TEST(TwoPhaseRegistration, SpanningNeedSpaceLeavesEveryBankUntouched) {
  // 2 banks x 2 entries, 64 B regions, range mode. Bank 1 is filled by two
  // single-region writers; a parameter spanning banks {0, 1} must then fail
  // atomically: no entry in bank 0, no queueing, no DC change.
  BankedTableConfig tcfg;
  tcfg.table.capacity = 4;
  tcfg.table.kick_off_capacity = 4;
  tcfg.table.match_mode = MatchMode::kRange;
  tcfg.partition.banks = 2;
  tcfg.partition.region_bytes = 64;
  BankedTable dt(tcfg);
  TaskPool tp({64, 8});
  BankedResolver resolver(tp, dt);

  auto insert_task = [&](std::vector<Param> params) {
    TaskDescriptor td;
    td.params = std::move(params);
    auto ins = tp.insert(td);
    EXPECT_TRUE(ins.has_value());
    return ins->id;
  };

  // Regions 1 and 3 are homed on bank 1 (odd regions).
  const TaskId filler =
      insert_task({core::out(64, 64), core::out(3 * 64, 64)});
  auto sub = resolver.submit(filler);
  ASSERT_TRUE(sub.ready);
  ASSERT_EQ(dt.bank(1).live_slot_count(), 2u);
  ASSERT_EQ(dt.bank(1).free_slot_count(), 0u);
  ASSERT_EQ(dt.bank(0).live_slot_count(), 0u);

  // [32, 160) spans regions 0..2 -> banks {0, 1}; overlaps filler's [64,128).
  const TaskId spanner = insert_task({core::inout(32, 128)});
  auto pr = resolver.process_param(spanner, core::inout(32, 128));
  EXPECT_EQ(pr.outcome, core::Resolver::ParamOutcome::kNeedSpace);
  EXPECT_FALSE(pr.structural);
  EXPECT_EQ(dt.bank(0).live_slot_count(), 0u) << "phase two ran on bank 0";
  EXPECT_EQ(dt.bank(1).live_slot_count(), 2u);
  EXPECT_EQ(tp.dependence_count(spanner), 0u) << "DC mutated on a failure";

  // Space frees; the identical retry commits in every touched bank.
  (void)resolver.finish(filler);
  tp.free_task(filler);
  auto retry = resolver.process_param(spanner, core::inout(32, 128));
  EXPECT_EQ(retry.outcome, core::Resolver::ParamOutcome::kGranted);
  EXPECT_EQ(dt.bank(0).live_slot_count(), 1u);
  EXPECT_EQ(dt.bank(1).live_slot_count(), 1u);

  auto fin = resolver.finish(spanner);
  EXPECT_TRUE(fin.now_ready.empty());
  EXPECT_TRUE(dt.empty());
}

TEST(TwoPhaseRegistration, StructuralFailurePropagates) {
  // Dummy entries disabled + a full kick-off list on one touched bank must
  // report a *structural* kNeedSpace (waiting can never help).
  BankedTableConfig tcfg;
  tcfg.table.capacity = 64;
  tcfg.table.kick_off_capacity = 2;
  tcfg.table.allow_dummy_entries = false;
  tcfg.table.match_mode = MatchMode::kRange;
  tcfg.partition.banks = 2;
  tcfg.partition.region_bytes = 64;
  BankedTable dt(tcfg);
  TaskPool tp({64, 8});
  BankedResolver resolver(tp, dt);

  auto insert_task = [&](std::vector<Param> params) {
    TaskDescriptor td;
    td.params = std::move(params);
    return tp.insert(td)->id;
  };

  const TaskId writer = insert_task({core::out(0, 64)});
  ASSERT_TRUE(resolver.submit(writer).ready);
  // Two waiters fill the bank-0 entry's two kick-off slots.
  const TaskId waiter_a = insert_task({core::in(0, 64)});
  ASSERT_FALSE(resolver.submit(waiter_a).ready);
  const TaskId waiter_b = insert_task({core::in(0, 64)});
  ASSERT_FALSE(resolver.submit(waiter_b).ready);
  // A spanning writer now hits the full list during phase one.
  const TaskId spanner = insert_task({core::out(0, 128)});
  auto pr = resolver.process_param(spanner, core::out(0, 128));
  EXPECT_EQ(pr.outcome, core::Resolver::ParamOutcome::kNeedSpace);
  EXPECT_TRUE(pr.structural);
  EXPECT_EQ(tp.dependence_count(spanner), 0u);
}

}  // namespace
}  // namespace nexuspp
