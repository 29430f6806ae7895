// Tests for the storage accounting: reproduces the byte sizes of the
// paper's Table IV and its Section V claim that all Task Maestro tables
// and FIFO lists fit in ~210 KB (vs Task Superscalar's 6.5 MB).

#include <gtest/gtest.h>

#include "nexus/storage.hpp"

namespace nexuspp {
namespace {

using nexus::NexusConfig;
using nexus::storage_budget;

TEST(Storage, TaskDescriptorIs78BytesAt8Params) {
  // Table IV: "Task Descriptor (TD) size: 78 Byte".
  EXPECT_EQ(nexus::task_descriptor_bytes(NexusConfig{}),
            78u);
}

TEST(Storage, DependenceEntryIs28BytesAtKickoff8) {
  // Table IV: "Dependence Table entry size: 28 Byte".
  EXPECT_EQ(nexus::dependence_entry_bytes(NexusConfig{}),
            28u);
}

TEST(Storage, TaskPoolIs78KB) {
  // Table IV: "Task Pool size: 78 KB (1K TDs)".
  const auto budget = storage_budget(NexusConfig{});
  ASSERT_FALSE(budget.items.empty());
  EXPECT_EQ(budget.items[0].name, "Task Pool");
  EXPECT_EQ(budget.items[0].bytes, 1024u * 78u);  // 79,872 B ~ 78 KB
}

TEST(Storage, DependenceTableIs112KB) {
  // Table IV: "Dependence Table size: 112 KB (4K entries)".
  const auto budget = storage_budget(NexusConfig{});
  EXPECT_EQ(budget.items[1].name, "Dependence Table");
  EXPECT_EQ(budget.items[1].bytes, 4096u * 28u);  // 114,688 B = 112 KB
}

TEST(Storage, TotalUnder210KBForPaperConfig) {
  // Section V: "All tables and FIFO lists in the Nexus++ task manager do
  // not exceed 210KB" — even at the largest evaluated machine size.
  NexusConfig cfg;
  cfg.num_workers = 512;  // paper sizes ID lists for up to 512 cores
  const auto budget = storage_budget(cfg);
  EXPECT_LT(budget.total_bytes, 210u * 1024u);
  // And vastly below Task Superscalar's 6.5 MB.
  EXPECT_LT(budget.total_bytes, 6u * 1024u * 1024u / 10u);
}

TEST(Storage, ScalesWithParameters) {
  NexusConfig small;
  NexusConfig wide = small;
  wide.task_pool.max_params = 16;
  EXPECT_GT(nexus::task_descriptor_bytes(wide),
            nexus::task_descriptor_bytes(small));
  NexusConfig long_ko = small;
  long_ko.dep_table.kick_off_capacity = 16;
  EXPECT_GT(nexus::dependence_entry_bytes(long_ko),
            nexus::dependence_entry_bytes(small));
}

TEST(Storage, TotalsAreSumOfItems) {
  const auto budget = storage_budget(NexusConfig{});
  std::uint64_t sum = 0;
  for (const auto& item : budget.items) sum += item.bytes;
  EXPECT_EQ(sum, budget.total_bytes);
  const auto rendered = budget.to_table().to_string();
  EXPECT_NE(rendered.find("Task Pool"), std::string::npos);
  EXPECT_NE(rendered.find("TOTAL"), std::string::npos);
}

}  // namespace
}  // namespace nexuspp
