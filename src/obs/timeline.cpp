#include "obs/timeline.hpp"

#include <algorithm>
#include <utility>

namespace nexuspp::obs {

const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kSubmit: return "submit";
    case EventKind::kStall: return "stall";
    case EventKind::kReady: return "ready";
    case EventKind::kRun: return "run";
    case EventKind::kFinish: return "finish";
    case EventKind::kRelease: return "release";
    case EventKind::kInFlight: return "in-flight";
    case EventKind::kReadyDepth: return "ready-depth";
  }
  return "unknown";
}

const char* category(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kSubmit:
    case EventKind::kStall:
    case EventKind::kReady:
    case EventKind::kRun:
    case EventKind::kFinish:
    case EventKind::kRelease:
      return "task";
    case EventKind::kInFlight:
    case EventKind::kReadyDepth:
      return "counter";
  }
  return "task";
}

bool is_counter(EventKind kind) noexcept {
  return kind == EventKind::kInFlight || kind == EventKind::kReadyDepth;
}

bool is_span(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kSubmit:
    case EventKind::kStall:
    case EventKind::kRun:
    case EventKind::kRelease:
      return true;
    default:
      return false;
  }
}

std::uint64_t Timeline::total_events() const noexcept {
  std::uint64_t n = 0;
  for (const TimelineTrack& track : tracks) n += track.events.size();
  return n;
}

std::uint64_t Timeline::total_dropped() const noexcept {
  std::uint64_t n = 0;
  for (const TimelineTrack& track : tracks) n += track.dropped;
  return n;
}

TimelineRecorder::TimelineRecorder(std::string process, std::string clock,
                                   std::uint32_t events_per_track)
    : process_(std::move(process)),
      clock_(std::move(clock)),
      capacity_(events_per_track == 0 ? 1 : events_per_track),
      origin_(std::chrono::steady_clock::now()) {}

std::uint32_t TimelineRecorder::add_track(std::string name) {
  Ring ring;
  ring.name = std::move(name);
  ring.events.resize(capacity_);
  rings_.push_back(std::move(ring));
  return static_cast<std::uint32_t>(rings_.size() - 1);
}

Timeline TimelineRecorder::finish() && {
  Timeline timeline;
  timeline.process = std::move(process_);
  timeline.clock = std::move(clock_);
  timeline.tracks.reserve(rings_.size());
  for (Ring& ring : rings_) {
    TimelineTrack track;
    track.name = std::move(ring.name);
    ring.events.resize(ring.count);
    track.events = std::move(ring.events);
    track.dropped = ring.dropped;
    // Enclosing spans are recorded when they close, so append order is not
    // timestamp order; a stable sort restores it while keeping same-ts
    // events (finish + grants) in their causal record order.
    std::stable_sort(track.events.begin(), track.events.end(),
                     [](const TimelineEvent& a, const TimelineEvent& b) {
                       return a.ts_ns < b.ts_ns;
                     });
    timeline.tracks.push_back(std::move(track));
  }
  rings_.clear();
  return timeline;
}

}  // namespace nexuspp::obs
