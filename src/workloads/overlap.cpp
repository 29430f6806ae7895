#include "workloads/overlap.hpp"

#include <stdexcept>

namespace nexuspp::workloads {

namespace {

/// Identical draws for the same (seed, serial) regardless of workload
/// shape, matching the keying convention of the grid generator.
void draw_timing(const trace::TimingModel& timing, std::uint64_t seed,
                 trace::TaskRecord& rec) {
  util::Rng rng(util::SplitMix64(seed ^ (rec.serial * 0x9E37)).next());
  rec.exec_time = timing.draw_exec(rng);
  const auto mem = timing.draw_mem(rng);
  rec.read_bytes = mem.read_bytes;
  rec.write_bytes = mem.write_bytes;
}

}  // namespace

void HaloStencilConfig::validate() const {
  if (blocks == 0 || steps == 0) {
    throw std::invalid_argument("halo stencil: empty workload");
  }
  if (block_bytes == 0) {
    throw std::invalid_argument("halo stencil: zero block size");
  }
  if (halo_bytes == 0 || halo_bytes >= block_bytes) {
    throw std::invalid_argument(
        "halo stencil: halo must be non-empty and smaller than a block");
  }
  if (base < halo_bytes) {
    throw std::invalid_argument("halo stencil: base below first halo");
  }
}

std::shared_ptr<const std::vector<trace::TaskRecord>> make_halo_stencil_trace(
    const HaloStencilConfig& cfg) {
  cfg.validate();
  auto tasks = std::make_shared<std::vector<trace::TaskRecord>>();
  tasks->reserve(halo_stencil_task_count(cfg));

  const core::Addr b = cfg.block_bytes;
  std::uint64_t serial = 0;
  for (std::uint32_t t = 0; t < cfg.steps; ++t) {
    for (std::uint32_t i = 0; i < cfg.blocks; ++i, ++serial) {
      trace::TaskRecord rec;
      rec.serial = serial;
      rec.fn = 0x57E7C11;
      draw_timing(cfg.timing, cfg.seed, rec);

      if (i > 0) {
        // Tail of block i-1: a base address no parameter ever writes.
        rec.params.push_back(
            core::in(cfg.base + i * b - cfg.halo_bytes, cfg.halo_bytes));
      }
      if (i + 1 < cfg.blocks) {
        // Head of block i+1: shares that block's base address.
        rec.params.push_back(
            core::in(cfg.base + (i + 1) * b, cfg.halo_bytes));
      }
      rec.params.push_back(core::inout(cfg.base + i * b, cfg.block_bytes));
      tasks->push_back(std::move(rec));
    }
  }
  return tasks;
}

void MixedTilesConfig::validate() const {
  if (tiles == 0 || rounds == 0) {
    throw std::invalid_argument("mixed tiles: empty workload");
  }
  if (sub_blocks == 0 || tile_bytes == 0 ||
      tile_bytes % sub_blocks != 0) {
    throw std::invalid_argument(
        "mixed tiles: sub_blocks must evenly divide tile_bytes");
  }
}

std::shared_ptr<const std::vector<trace::TaskRecord>> make_mixed_tiles_trace(
    const MixedTilesConfig& cfg) {
  cfg.validate();
  auto tasks = std::make_shared<std::vector<trace::TaskRecord>>();
  tasks->reserve(mixed_tiles_task_count(cfg));

  const std::uint32_t sub_bytes = cfg.tile_bytes / cfg.sub_blocks;
  std::uint64_t serial = 0;
  for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
    for (std::uint32_t t = 0; t < cfg.tiles; ++t) {
      const core::Addr tile = cfg.base + static_cast<core::Addr>(t) *
                                             cfg.tile_bytes;
      trace::TaskRecord producer;
      producer.serial = serial++;
      producer.fn = 0x711E;
      draw_timing(cfg.timing, cfg.seed, producer);
      producer.params.push_back(core::inout(tile, cfg.tile_bytes));
      tasks->push_back(std::move(producer));

      for (std::uint32_t k = 0; k < cfg.sub_blocks; ++k) {
        trace::TaskRecord consumer;
        consumer.serial = serial++;
        consumer.fn = 0x5B;
        draw_timing(cfg.timing, cfg.seed, consumer);
        consumer.params.push_back(
            core::in(tile + static_cast<core::Addr>(k) * sub_bytes,
                     sub_bytes));
        tasks->push_back(std::move(consumer));
      }
    }
  }
  return tasks;
}

}  // namespace nexuspp::workloads
