#include "workloads/spatial.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace nexuspp::workloads {

namespace {

/// Same (seed, serial) timing convention as the grid/overlap generators.
void draw_timing(const trace::TimingModel& timing, std::uint64_t seed,
                 trace::TaskRecord& rec) {
  util::Rng rng(util::SplitMix64(seed ^ (rec.serial * 0x9E37)).next());
  rec.exec_time = timing.draw_exec(rng);
  const auto mem = timing.draw_mem(rng);
  rec.read_bytes = mem.read_bytes;
  rec.write_bytes = mem.write_bytes;
}

/// The occupancy map is drawn once, cell by cell in row-major order, from
/// its own RNG stream — tasks' timing draws never disturb it.
std::vector<bool> occupancy(const SpatialConfig& cfg) {
  util::Rng rng(util::SplitMix64(cfg.seed ^ 0x0CC7'7A11).next());
  std::vector<bool> occupied(static_cast<std::size_t>(cfg.cells_x) *
                             cfg.cells_y);
  for (std::size_t i = 0; i < occupied.size(); ++i) {
    occupied[i] = rng.chance(cfg.fill);
  }
  return occupied;
}

}  // namespace

void SpatialConfig::validate() const {
  if (cells_x == 0 || cells_y == 0 || steps == 0) {
    throw std::invalid_argument("spatial: empty workload");
  }
  if (cell_bytes == 0) {
    throw std::invalid_argument("spatial: zero cell size");
  }
  if (halo_bytes >= cell_bytes) {
    throw std::invalid_argument(
        "spatial: halo_bytes must be smaller than cell_bytes");
  }
  if (fill < 0.0 || fill > 1.0) {
    throw std::invalid_argument("spatial: fill must be in [0, 1]");
  }
}

std::uint64_t spatial_occupied_cells(const SpatialConfig& cfg) {
  cfg.validate();
  std::uint64_t n = 0;
  for (const bool o : occupancy(cfg)) n += o;
  return n;
}

std::uint64_t spatial_task_count(const SpatialConfig& cfg) {
  return spatial_occupied_cells(cfg) * cfg.steps;
}

std::shared_ptr<const std::vector<trace::TaskRecord>> make_spatial_trace(
    const SpatialConfig& cfg) {
  cfg.validate();
  const auto occupied = occupancy(cfg);
  auto tasks = std::make_shared<std::vector<trace::TaskRecord>>();

  const auto cell_addr = [&cfg](std::uint32_t x, std::uint32_t y) {
    return cfg.base + (static_cast<core::Addr>(y) * cfg.cells_x + x) *
                          cfg.cell_bytes;
  };
  const auto is_occupied = [&](std::int64_t x, std::int64_t y) {
    return x >= 0 && y >= 0 && x < static_cast<std::int64_t>(cfg.cells_x) &&
           y < static_cast<std::int64_t>(cfg.cells_y) &&
           occupied[static_cast<std::size_t>(y) * cfg.cells_x +
                    static_cast<std::size_t>(x)];
  };

  std::uint64_t serial = 0;
  for (std::uint32_t t = 0; t < cfg.steps; ++t) {
    for (std::uint32_t y = 0; y < cfg.cells_y; ++y) {
      for (std::uint32_t x = 0; x < cfg.cells_x; ++x) {
        if (!occupied[static_cast<std::size_t>(y) * cfg.cells_x + x]) {
          continue;
        }
        trace::TaskRecord rec;
        rec.serial = serial++;
        rec.fn = 0x5A71;
        draw_timing(cfg.timing, cfg.seed, rec);

        for (std::int64_t dy = -1; dy <= 1; ++dy) {
          for (std::int64_t dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0) continue;
            if (!is_occupied(static_cast<std::int64_t>(x) + dx,
                             static_cast<std::int64_t>(y) + dy)) {
              continue;
            }
            const core::Addr neigh =
                cell_addr(static_cast<std::uint32_t>(x + dx),
                          static_cast<std::uint32_t>(y + dy));
            if (cfg.halo_bytes == 0) {
              rec.params.push_back(core::in(neigh, cfg.cell_bytes));
            } else {
              rec.params.push_back(core::in(
                  neigh + cfg.cell_bytes - cfg.halo_bytes, cfg.halo_bytes));
            }
          }
        }
        rec.params.push_back(core::inout(cell_addr(x, y), cfg.cell_bytes));
        tasks->push_back(std::move(rec));
      }
    }
  }
  return tasks;
}

}  // namespace nexuspp::workloads
