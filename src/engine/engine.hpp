#pragma once
// The Engine abstraction: one interface over every simulated runtime model.
//
// An Engine is a reusable, thread-compatible runner: `run()` is const and
// builds a fresh simulation per invocation, so one Engine instance can be
// driven concurrently from sweep threads and can never trip the underlying
// systems' single-use semantics. Adapters translate their model's native
// report into the unified engine::RunReport.
//
// Shipping engines:
//   nexus++       — the paper's hardware task manager (dummy tasks, dummy
//                   entries, arbitrary-depth task buffering)
//   classic-nexus — the original Nexus baseline (5-param descriptors, no
//                   dummy mechanisms, no worker-side buffering)
//   nexus-banked  — Nexus++ with the Dependence Table split into N
//                   address-interleaved banks (src/bank/); the same
//                   nexus::NexusSystem as nexus++, so banks=1 is nexus++
//   software-rts  — the software StarSs runtime the hardware exists to beat
//   exec-threads  — the real concurrent executor (src/exec/): worker
//                   threads running spin-calibrated kernels, dependency
//                   resolution via core::Resolver on the master thread.
//                   Reports real wall-clock throughput, so its RunReport is
//                   NOT deterministic (deterministic_report() == false).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "engine/run_report.hpp"
#include "exec/executor.hpp"
#include "hw/memory.hpp"
#include "nexus/config.hpp"
#include "obs/timeline.hpp"
#include "rts/software_rts.hpp"
#include "trace/trace.hpp"

namespace nexuspp::engine {

/// Engine-independent tuning knobs. Zero / nullopt means "keep the
/// engine's default"; knobs a model does not have (e.g. table sizes on the
/// software RTS) are ignored, which is what lets one config grid sweep
/// heterogeneous engines.
struct EngineParams {
  std::uint32_t num_workers = 4;
  std::uint32_t buffering_depth = 0;     ///< Task Controller buffer depth
  std::uint32_t task_pool_capacity = 0;  ///< descriptors
  std::uint32_t dep_table_capacity = 0;  ///< entries
  std::uint32_t kick_off_capacity = 0;   ///< ids per kick-off list
  std::uint32_t tds_buffer_capacity = 0; ///< master-side TD buffer
  /// Dependence-table banks: the `nexus-banked` engine's scaling axis.
  /// Every other engine ignores it — `exec-threads` included, whose
  /// master owns one unbanked table. 0 keeps the config default of 1.
  std::uint32_t banks = 0;
  /// Worker threads of the real executor (`exec-threads` only; simulated
  /// engines ignore it). 0 defaults to num_workers, so worker-count sweeps
  /// drive the real backend with the same axis as the simulated ones.
  std::uint32_t threads = 0;
  /// Kernel body of the real executor (`exec-threads` only; simulated
  /// engines consume trace durations and ignore it): spin, compute,
  /// memory, imbalance or dgemm — see exec/kernels.hpp. nullopt keeps
  /// the default (spin).
  std::optional<exec::KernelKind> kernel;
  std::optional<hw::ContentionModel> contention;
  std::optional<bool> enable_task_prep;
  std::optional<bool> allow_dummies;  ///< dummy tasks + dummy entries
  /// Address-matching semantics of the dependency resolver (both the
  /// hardware Dependence Table and the software RTS honour it).
  std::optional<core::MatchMode> match_mode;
  /// Task-timeline tracing (src/obs/). When enabled the run's RunReport
  /// carries a Chrome-trace-exportable timeline plus the derived obs_*
  /// critical-path columns. Honoured by nexus++, classic-nexus,
  /// nexus-banked and exec-threads; software-rts ignores it.
  obs::TimelineOptions timeline;

  /// Compact human-readable description of the non-default knobs.
  [[nodiscard]] std::string label() const;
};

class Engine {
 public:
  virtual ~Engine() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Runs one simulation over `stream` to completion. Never throws on
  /// deadlock — the report carries `deadlocked` plus a diagnosis, so sweep
  /// grids that include infeasible points (e.g. classic Nexus on a fan-out
  /// workload) still produce a full result set.
  [[nodiscard]] virtual RunReport run(
      std::unique_ptr<trace::TaskStream> stream) const = 0;

  /// True when run() is a pure function of (config, stream) — identical
  /// reports on identical inputs, the property the replay bit-identity
  /// tests assert. Real-execution backends (exec-threads) return false:
  /// their reports carry wall-clock measurements.
  [[nodiscard]] virtual bool deterministic_report() const noexcept {
    return true;
  }
};

/// Adapter over nexus::NexusSystem for all three Nexus engines; they
/// differ only in their NexusConfig. An unbanked engine (nexus++,
/// classic-nexus) models the paper's single Dependence Table: it runs one
/// bank whatever `config.banks` says and reports banks == 0 with no bank
/// telemetry, like every other unbanked engine. A `banked` one
/// (nexus-banked) runs `config.banks` banks and reports them.
class NexusEngine final : public Engine {
 public:
  NexusEngine(std::string name, nexus::NexusConfig config,
              bool banked = false)
      : name_(std::move(name)), cfg_(std::move(config)), banked_(banked) {
    if (!banked_) cfg_.banks = 1;
  }

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] RunReport run(
      std::unique_ptr<trace::TaskStream> stream) const override;

  [[nodiscard]] const nexus::NexusConfig& config() const noexcept {
    return cfg_;
  }

  /// Applies the engine-independent knobs onto a base configuration.
  [[nodiscard]] static nexus::NexusConfig apply(nexus::NexusConfig base,
                                                const EngineParams& params);

 private:
  std::string name_;
  nexus::NexusConfig cfg_;
  bool banked_;
};

/// Adapter over exec::ThreadedExecutor — the real concurrent backend. The
/// engine is const and reusable (a fresh single-use executor per run()),
/// but its reports are wall-clock measurements, not simulations:
/// deterministic_report() is false and replay is *statistically*
/// comparable only.
class ThreadedExecEngine final : public Engine {
 public:
  explicit ThreadedExecEngine(exec::ExecConfig config)
      : cfg_(std::move(config)) {}

  [[nodiscard]] std::string name() const override { return "exec-threads"; }
  [[nodiscard]] RunReport run(
      std::unique_ptr<trace::TaskStream> stream) const override;
  [[nodiscard]] bool deterministic_report() const noexcept override {
    return false;
  }

  [[nodiscard]] const exec::ExecConfig& config() const noexcept {
    return cfg_;
  }

  /// Applies the engine-independent knobs. `threads` falls back to
  /// num_workers so a worker-count sweep exercises the thread pool.
  [[nodiscard]] static exec::ExecConfig apply(exec::ExecConfig base,
                                              const EngineParams& params);

 private:
  exec::ExecConfig cfg_;
};

/// Adapter over the software StarSs runtime model.
class SoftwareRtsEngine final : public Engine {
 public:
  explicit SoftwareRtsEngine(rts::SoftwareRtsConfig config = {})
      : cfg_(std::move(config)) {}

  [[nodiscard]] std::string name() const override { return "software-rts"; }
  [[nodiscard]] RunReport run(
      std::unique_ptr<trace::TaskStream> stream) const override;

  [[nodiscard]] const rts::SoftwareRtsConfig& config() const noexcept {
    return cfg_;
  }

  [[nodiscard]] static rts::SoftwareRtsConfig apply(
      rts::SoftwareRtsConfig base, const EngineParams& params);

 private:
  rts::SoftwareRtsConfig cfg_;
};

}  // namespace nexuspp::engine
