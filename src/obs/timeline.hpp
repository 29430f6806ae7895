#pragma once
// Task-timeline recording.
//
// A TimelineRecorder owns one preallocated event ring per track (track ==
// one worker thread or one simulated hardware block). The record path is a
// single bounds-checked store into the ring — no locks, no allocation, no
// syscalls — so it is safe inside `util::NoAllocScope` regions and cheap
// enough to leave compiled into release builds. When tracing is disabled no
// recorder exists and every hook site is a null-pointer check.
//
// Two clock domains share one schema: the threaded executor stamps events
// with wall time (`now_ns()`, steady_clock relative to recorder creation)
// while the simulated engines stamp them with `sim::to_ns(sim.now())`. The
// finished Timeline carries which domain produced it, and the Chrome-trace
// exporter / critical-path analysis treat both identically.

#include <cstdint>
#include <chrono>
#include <string>
#include <vector>

namespace nexuspp::obs {

/// What a single timeline event describes. Spans carry a duration, instants
/// mark a point, counters sample a value (in `arg`).
enum class EventKind : std::uint8_t {
  kSubmit,        ///< span: master/maestro busy submitting one task
  kStall,         ///< span: submission blocked (window full / renames dry)
  kReady,         ///< instant: task became runnable; arg = granting pred
  kRun,           ///< span: kernel execution
  kFinish,        ///< instant: task completion observed
  kRelease,       ///< span: dependence release / successor grant processing
  kInFlight,      ///< counter: tasks submitted but not yet finished
  kReadyDepth,    ///< counter: ready-queue depth after a push
};

/// Stable display name ("submit", "ready-depth", ...) used by the exporter.
[[nodiscard]] const char* to_string(EventKind kind) noexcept;

/// Trace-event category: "task" or "counter".
[[nodiscard]] const char* category(EventKind kind) noexcept;

[[nodiscard]] bool is_counter(EventKind kind) noexcept;
[[nodiscard]] bool is_span(EventKind kind) noexcept;

/// `arg` value of a kReady event for a task that was runnable at submit
/// time (no granting predecessor).
inline constexpr std::uint64_t kNoPred = ~0ull;

struct TimelineEvent {
  double ts_ns = 0.0;      ///< start time in the timeline's clock domain
  double dur_ns = 0.0;     ///< span length; 0 for instants and counters
  std::uint64_t task = 0;  ///< task serial (0 when not task-scoped)
  std::uint64_t arg = 0;   ///< kind-specific payload (pred serial, depth, ...)
  EventKind kind = EventKind::kSubmit;

  friend bool operator==(const TimelineEvent&, const TimelineEvent&) = default;
};

struct TimelineTrack {
  std::string name;                  ///< e.g. "worker-3", "maestro/check-deps"
  std::vector<TimelineEvent> events; ///< sorted by ts_ns once finished
  std::uint64_t dropped = 0;         ///< events lost to ring exhaustion
};

/// A finished recording: immutable, analysable, exportable.
struct Timeline {
  std::string process;  ///< engine label, e.g. "exec-threads"
  std::string clock;    ///< "wall" (steady_clock) or "sim" (sim::Time)
  std::vector<TimelineTrack> tracks;

  [[nodiscard]] std::uint64_t total_events() const noexcept;
  [[nodiscard]] std::uint64_t total_dropped() const noexcept;
};

/// Per-run tracing knobs, carried by EngineParams and the engine configs.
struct TimelineOptions {
  bool enabled = false;
  /// Ring capacity per track; events beyond it are counted as dropped.
  std::uint32_t events_per_track = 1u << 16;

  friend bool operator==(const TimelineOptions&, const TimelineOptions&) =
      default;
};

/// Collects events into per-track rings. Track registration (setup phase,
/// allocates) must finish before concurrent recording starts; thereafter
/// each track must have a single writer thread — the rings are unsynchronised
/// by design.
class TimelineRecorder {
 public:
  TimelineRecorder(std::string process, std::string clock,
                   std::uint32_t events_per_track);
  TimelineRecorder(const TimelineRecorder&) = delete;
  TimelineRecorder& operator=(const TimelineRecorder&) = delete;

  /// Registers a track and preallocates its ring. Setup phase only.
  [[nodiscard]] std::uint32_t add_track(std::string name);

  /// Appends one event to `track`'s ring, or bumps the drop counter when
  /// full. Single store, no allocation, no synchronisation.
  // NEXUS_HOT_PATH
  void record(std::uint32_t track, EventKind kind, double ts_ns, double dur_ns,
              std::uint64_t task, std::uint64_t arg) noexcept {
    Ring& ring = rings_[track];
    if (ring.count < capacity_) {
      ring.events[ring.count] = TimelineEvent{ts_ns, dur_ns, task, arg, kind};
      ++ring.count;
    } else {
      ++ring.dropped;
    }
  }

  /// Wall nanoseconds since recorder construction (the "wall" clock domain).
  // NEXUS_HOT_PATH
  [[nodiscard]] double now_ns() const noexcept {
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Seals the recording: trims rings, sorts each track by timestamp
  /// (record order is append order, and nested spans are recorded at close,
  /// out of timestamp order), and returns the immutable Timeline.
  [[nodiscard]] Timeline finish() &&;

 private:
  struct Ring {
    std::string name;
    std::vector<TimelineEvent> events;  ///< resized to capacity up front
    std::uint32_t count = 0;
    std::uint64_t dropped = 0;
  };

  std::string process_;
  std::string clock_;
  std::uint32_t capacity_;
  std::vector<Ring> rings_;
  std::chrono::steady_clock::time_point origin_;
};

}  // namespace nexuspp::obs
