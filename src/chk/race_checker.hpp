#pragma once
// Vector-clock happens-before + lockset race checker (NEXUSPP_SCHEDCHECK).
//
// Fed by the chk:: instrumentation seam (session.cpp resolves thread ids
// and locking; this class is pure logic over explicit thread ids, which
// is what makes the hand-built event-sequence unit tests possible).
//
// Model — per instrumented thread t a vector clock VC_t; per location:
//   * atomic address: a `release_vc` accumulator. A release-class store /
//     RMW joins VC_t into it; an acquire-class load / RMW joins it into
//     VC_t. Relaxed ops create no edge. seq_cst is treated as acq_rel —
//     an over-approximation of the real total order that can only hide
//     races (false negatives), never report a correct pair.
//   * mutex: same accumulator discipline on unlock (release) / lock
//     (acquire), plus a per-thread lockset for diagnostics.
//   * plain address (chk::plain_read / chk::plain_write): shadow cells
//     holding the last write and per-thread reads, each stamped with
//     (thread, clock, source location, lockset). A new access must
//     happen-after every conflicting recorded access or an exact racing
//     pair is reported.
//
// The checker never blocks and allocates only its own shadow state; the
// session wraps calls in AllowAllocScope so hooks may fire inside
// NoAllocScope-guarded hot paths of checked builds.

#if defined(NEXUSPP_SCHEDCHECK)

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "chk/chk.hpp"

namespace nexuspp::chk {

/// Fixed-width vector clock over the recyclable thread-slot space.
struct VectorClock {
  std::array<std::uint64_t, kMaxThreads> c{};

  void join(const VectorClock& other) noexcept {
    for (std::uint32_t i = 0; i < kMaxThreads; ++i) {
      if (other.c[i] > c[i]) c[i] = other.c[i];
    }
  }
  /// True when an event at `clock` on thread `tid` happens-before the
  /// point in time this clock represents.
  [[nodiscard]] bool covers(std::uint32_t tid,
                            std::uint64_t clock) const noexcept {
    return c[tid] >= clock;
  }
};

/// One side of a racing pair, fully located.
struct RaceAccess {
  OpKind op = OpKind::kPlainRead;
  std::uint32_t tid = 0;
  std::uint64_t clock = 0;
  std::string file;
  std::uint32_t line = 0;
  std::string lockset;  ///< mutex tokens held, e.g. "{M0,M2}" (diagnostic)
};

struct RaceReport {
  enum class Kind : std::uint8_t {
    kWriteWrite,
    kWriteRead,   ///< prior write, racing read
    kReadWrite,   ///< prior read, racing write
  };
  Kind kind = Kind::kWriteWrite;
  std::uint32_t addr_token = 0;  ///< dense, first-registration order
  RaceAccess prior;
  RaceAccess current;

  [[nodiscard]] std::string to_string() const;
};

/// Thrown by the session (throw mode) from plain-access hooks when a race
/// is detected, so harness workloads unwind instead of executing the
/// now-meaningless protocol state. Never thrown from destructor-reachable
/// hooks (atomic ops) — those record only.
class RaceDetected : public std::exception {
 public:
  explicit RaceDetected(RaceReport report);
  [[nodiscard]] const char* what() const noexcept override {
    return message_.c_str();
  }
  [[nodiscard]] const RaceReport& report() const noexcept { return report_; }

 private:
  RaceReport report_;
  std::string message_;
};

class RaceChecker {
 public:
  enum class Mode : std::uint8_t {
    kRecord,  ///< collect deduplicated reports; query via reports()
    kThrow,   ///< record + throw RaceDetected from plain-access checks
    kHalt,    ///< print the report and abort (env-driven CI sweeps)
  };

  explicit RaceChecker(Mode mode = Mode::kRecord) : mode_(mode) {}

  // --- event entry points (thread ids resolved by the caller) ---

  void on_acquire(std::uint32_t tid, const void* addr, OpKind op,
                  const char* file, std::uint32_t line);
  void on_release(std::uint32_t tid, const void* addr, OpKind op,
                  const char* file, std::uint32_t line);
  void on_mutex_acquire(std::uint32_t tid, const void* mutex,
                        const char* file, std::uint32_t line);
  void on_mutex_release(std::uint32_t tid, const void* mutex,
                        const char* file, std::uint32_t line);
  /// May throw RaceDetected in Mode::kThrow.
  void on_plain(std::uint32_t tid, const void* addr, bool is_write,
                const char* file, std::uint32_t line);

  /// Join edges for thread fork/join (ThreadLink) and controller
  /// start/finish barriers.
  void capture_clock(std::uint32_t tid, std::uint64_t* out);
  void adopt_clock(std::uint32_t tid, const std::uint64_t* in);

  // --- results ---

  [[nodiscard]] const std::vector<RaceReport>& reports() const noexcept {
    return reports_;
  }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  [[nodiscard]] Mode mode() const noexcept { return mode_; }

  /// Dense token for an address (assigned at first sight). Exposed so
  /// traces and tests can name locations schedule-stably.
  [[nodiscard]] std::uint32_t token_for(const void* addr);

 private:
  struct AccessStamp {
    std::uint64_t clock = 0;
    const char* file = nullptr;
    std::uint32_t line = 0;
    OpKind op = OpKind::kPlainRead;
    std::uint64_t lockset = 0;  ///< bitset over mutex tokens < 64
    bool valid = false;
  };
  struct PlainShadow {
    std::uint32_t write_tid = 0;
    AccessStamp write;
    std::array<AccessStamp, kMaxThreads> reads{};
  };
  struct ThreadState {
    VectorClock vc;
    std::uint64_t lockset = 0;
  };

  ThreadState& thread(std::uint32_t tid);
  void tick(std::uint32_t tid) noexcept;
  [[nodiscard]] std::string lockset_names(std::uint64_t lockset) const;
  [[nodiscard]] RaceAccess stamp_to_access(std::uint32_t tid,
                                           const AccessStamp& stamp,
                                           OpKind fallback_op) const;
  /// Builds, deduplicates, and dispatches a report per mode_. Returns
  /// true when the report was fresh (not a duplicate) — kThrow only
  /// throws for fresh reports.
  bool emit(RaceReport::Kind kind, const void* addr, RaceAccess prior,
            RaceAccess current);

  Mode mode_;
  std::array<ThreadState, kMaxThreads> threads_{};
  std::unordered_map<const void*, PlainShadow> plain_;
  /// Per atomic address: the release accumulator.
  std::unordered_map<const void*, VectorClock> atomics_;
  std::unordered_map<const void*, VectorClock> mutexes_;
  std::unordered_map<const void*, std::uint32_t> tokens_;
  std::unordered_map<const void*, std::uint32_t> mutex_tokens_;
  std::vector<RaceReport> reports_;
  std::vector<std::string> dedup_keys_;
  std::uint64_t events_ = 0;
};

}  // namespace nexuspp::chk

#endif  // NEXUSPP_SCHEDCHECK
