#include "nexus/storage.hpp"

namespace nexuspp::nexus {

namespace {

constexpr std::uint64_t kDescriptorHeaderBytes = 6;
constexpr std::uint64_t kParamBytes = 9;   // 8 B address + size/mode packed
constexpr std::uint64_t kEntryBaseBytes = 12;
constexpr std::uint64_t kTaskIdBytes = 2;  // 1K..64K tasks
constexpr std::uint64_t kSizeByteEntry = 1;

}  // namespace

std::uint64_t task_descriptor_bytes(const NexusConfig& cfg) {
  return kDescriptorHeaderBytes +
         static_cast<std::uint64_t>(cfg.task_pool.max_params) * kParamBytes;
}

std::uint64_t dependence_entry_bytes(const NexusConfig& cfg) {
  return kEntryBaseBytes +
         static_cast<std::uint64_t>(cfg.dep_table.kick_off_capacity) *
             kTaskIdBytes;
}

StorageBudget storage_budget(const NexusConfig& cfg) {
  StorageBudget budget;
  auto add = [&budget](std::string name, std::uint64_t bytes) {
    budget.items.push_back({std::move(name), bytes});
    budget.total_bytes += bytes;
  };

  add("Task Pool",
      static_cast<std::uint64_t>(cfg.task_pool.capacity) *
          task_descriptor_bytes(cfg));
  add("Dependence Table",
      static_cast<std::uint64_t>(cfg.dep_table.capacity) *
          dependence_entry_bytes(cfg));
  add("TDs Sizes list", cfg.tds_buffer_capacity * kSizeByteEntry);
  add("New Tasks list",
      static_cast<std::uint64_t>(cfg.task_pool.capacity) * kTaskIdBytes);
  add("TP Free Indices list",
      static_cast<std::uint64_t>(cfg.task_pool.capacity) * kTaskIdBytes);
  add("Global Ready Tasks list",
      static_cast<std::uint64_t>(cfg.task_pool.capacity) * kTaskIdBytes);
  add("Worker Cores IDs list",
      static_cast<std::uint64_t>(cfg.num_workers) * cfg.buffering_depth *
          kTaskIdBytes);
  add("CxRdyTasks lists (all cores)",
      static_cast<std::uint64_t>(cfg.num_workers) * cfg.buffering_depth *
          kTaskIdBytes);
  add("CxFinTasks lists (all cores)",
      static_cast<std::uint64_t>(cfg.num_workers) * cfg.buffering_depth *
          kTaskIdBytes);
  return budget;
}

util::Table StorageBudget::to_table() const {
  util::Table t("Task Maestro on-chip storage");
  t.header({"structure", "bytes", "KiB"});
  for (const auto& item : items) {
    t.row({item.name, util::fmt_count(item.bytes),
           util::fmt_f(static_cast<double>(item.bytes) / 1024.0, 1)});
  }
  t.row({"TOTAL", util::fmt_count(total_bytes),
         util::fmt_f(static_cast<double>(total_bytes) / 1024.0, 1)});
  return t;
}

}  // namespace nexuspp::nexus
