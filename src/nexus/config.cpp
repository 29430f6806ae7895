#include "nexus/config.hpp"

#include <stdexcept>
#include <string>

#include "bank/partition.hpp"

namespace nexuspp::nexus {

void NexusConfig::validate() const {
  if (num_workers == 0) {
    throw std::invalid_argument("NexusConfig: need at least one worker");
  }
  if (buffering_depth == 0) {
    throw std::invalid_argument("NexusConfig: buffering depth must be >= 1");
  }
  if (nexus_cycle <= 0) {
    throw std::invalid_argument("NexusConfig: nexus_cycle must be positive");
  }
  if (tds_buffer_capacity == 0) {
    throw std::invalid_argument("NexusConfig: TDs buffer must hold >= 1");
  }
  if (banks == 0) {
    throw std::invalid_argument("NexusConfig: need at least one DT bank");
  }
  if (banks > dep_table.capacity) {
    throw std::invalid_argument(
        "NexusConfig: more DT banks than dependence-table entries");
  }
  task_pool.validate();
  dep_table.validate();
  master_bus.validate();
  memory.validate();
}

NexusConfig NexusConfig::classic_nexus() {
  NexusConfig cfg;
  cfg.task_pool.max_params = 5;  // Nexus limit ("up to 5 in [10], [9]")
  cfg.task_pool.allow_dummy_tasks = false;
  cfg.dep_table.allow_dummy_entries = false;
  cfg.buffering_depth = 1;  // "Nexus proposed TCs, but did not implement"
  return cfg;
}

util::Table NexusConfig::describe() const {
  util::Table t("System parameters (paper Table IV)");
  t.header({"parameter", "value"});
  const double nexus_mhz = 1e6 / sim::to_ns(nexus_cycle) / 1e3;
  t.row({"worker cores", std::to_string(num_workers)});
  t.row({"buffering depth", std::to_string(buffering_depth)});
  t.row({"Nexus++ clock", util::fmt_f(nexus_mhz, 0) + " MHz"});
  t.row({"on-chip access",
         util::fmt_ns(sim::to_ns(nexus_cycle) *
                      static_cast<double>(onchip_access_cycles))});
  t.row({"Task Pool",
         std::to_string(task_pool.capacity) + " TDs x " +
             std::to_string(task_pool.max_params) + " params" +
             (task_pool.allow_dummy_tasks ? " (+dummy tasks)" : "")});
  t.row({"Dependence Table",
         std::to_string(dep_table.capacity) + " entries, kick-off " +
             std::to_string(dep_table.kick_off_capacity) +
             (dep_table.allow_dummy_entries ? " (+dummy entries)" : "")});
  t.row({"address matching", core::to_string(dep_table.match_mode)});
  if (banks > 1) {
    t.row({"DT banks", std::to_string(banks) + " x " +
                           std::to_string((dep_table.capacity + banks - 1) /
                                          banks) +
                           " entries, " +
                           std::to_string(bank::BankPartition{}.region_bytes) +
                           " B regions"});
  }
  t.row({"task preparation",
         enable_task_prep ? util::fmt_ns(sim::to_ns(task_prep_time))
                          : std::string("disabled")});
  t.row({"bus", std::to_string(master_bus.word_bytes) + " B/word, " +
                    std::to_string(master_bus.handshake_cycles) +
                    "-cycle handshake, " +
                    std::to_string(master_bus.cycles_per_word) +
                    " cycle/word"});
  const char* contention = "?";
  switch (memory.contention) {
    case hw::ContentionModel::kNone: contention = "contention-free"; break;
    case hw::ContentionModel::kPorts: contention = "32-port rule"; break;
    case hw::ContentionModel::kBanked: contention = "banked"; break;
  }
  t.row({"memory", std::to_string(memory.banks) + " banks, " +
                       std::to_string(memory.chunk_bytes) + " B / " +
                       util::fmt_ns(sim::to_ns(memory.chunk_latency)) +
                       ", " + contention});
  t.row({"TDs buffer", std::to_string(tds_buffer_capacity)});
  t.row({"New Tasks list", std::to_string(task_pool.capacity)});
  t.row({"Global Ready list", std::to_string(task_pool.capacity)});
  return t;
}

}  // namespace nexuspp::nexus
