#pragma once
// Fundamental types shared by the dependency-resolution structures.
//
// Terminology follows the paper: a *task* is identified inside Nexus++ by
// the Task Pool index its descriptor is stored at; a *parameter* is one
// input/output of a task given as (base address, size, access mode), and
// dependencies are decided by comparing base addresses.

#include <cstdint>
#include <string>
#include <vector>

namespace nexuspp::core {

/// Task identifier = Task Pool index ("inside Nexus++, a task is identified
/// by its Task Pool index").
using TaskId = std::uint32_t;
inline constexpr TaskId kInvalidTask = 0xFFFF'FFFFu;

/// Byte address of a parameter's base (dependencies compare base addresses).
using Addr = std::uint64_t;

/// How parameter accesses are matched when resolving dependencies.
///   kBaseAddr — the paper's scheme: two accesses conflict iff their base
///               addresses are equal. Cheap (one hash lookup) but blind to
///               partially overlapping regions of different granularity.
///   kRange    — interval semantics: two accesses conflict iff their byte
///               ranges [addr, addr+size) intersect. Catches halo reads and
///               mixed-granularity tiles that base matching silently treats
///               as independent.
enum class MatchMode : std::uint8_t {
  kBaseAddr,
  kRange,
};

[[nodiscard]] constexpr const char* to_string(MatchMode m) noexcept {
  switch (m) {
    case MatchMode::kBaseAddr: return "base-addr";
    case MatchMode::kRange: return "range";
  }
  return "?";
}

/// Throws std::logic_error(what): a broken table invariant. Out of line, so
/// the inline fast paths (dependence_table.hpp, task_pool.hpp,
/// resolver.hpp) carry one call, not an exception's construction, on each
/// branch that can only fire on a bug.
[[noreturn]] void throw_logic_error(const char* what);

/// Parses the names produced by to_string(MatchMode) (plus the "base"
/// shorthand). Throws std::invalid_argument on anything else — the CLI
/// tools surface the message verbatim.
[[nodiscard]] MatchMode match_mode_from_string(const std::string& name);

/// True when byte ranges [a, a+a_size) and [b, b+b_size) intersect.
[[nodiscard]] constexpr bool ranges_overlap(Addr a, std::uint32_t a_size,
                                            Addr b,
                                            std::uint32_t b_size) noexcept {
  return a < b + b_size && b < a + a_size;
}

/// Access mode of a task parameter.
enum class AccessMode : std::uint8_t {
  kIn,     ///< read-only input
  kOut,    ///< write-only output
  kInOut,  ///< read-modify-write
};

[[nodiscard]] constexpr bool reads(AccessMode m) noexcept {
  return m == AccessMode::kIn || m == AccessMode::kInOut;
}
[[nodiscard]] constexpr bool writes(AccessMode m) noexcept {
  return m == AccessMode::kOut || m == AccessMode::kInOut;
}
[[nodiscard]] constexpr const char* to_string(AccessMode m) noexcept {
  switch (m) {
    case AccessMode::kIn: return "in";
    case AccessMode::kOut: return "out";
    case AccessMode::kInOut: return "inout";
  }
  return "?";
}

/// One input/output of a task: (base address, size, access mode).
struct Param {
  Addr addr = 0;
  std::uint32_t size = 0;
  AccessMode mode = AccessMode::kIn;

  [[nodiscard]] friend bool operator==(const Param&, const Param&) = default;
};

[[nodiscard]] constexpr Param in(Addr a, std::uint32_t size = 4) noexcept {
  return Param{a, size, AccessMode::kIn};
}
[[nodiscard]] constexpr Param out(Addr a, std::uint32_t size = 4) noexcept {
  return Param{a, size, AccessMode::kOut};
}
[[nodiscard]] constexpr Param inout(Addr a, std::uint32_t size = 4) noexcept {
  return Param{a, size, AccessMode::kInOut};
}

/// Cost receipt: how many on-chip table accesses an operation performed.
/// The timed layer (nexus::Maestro) converts these into simulated cycles;
/// the untimed structures only count them.
struct Cost {
  std::uint32_t reads = 0;
  std::uint32_t writes = 0;

  [[nodiscard]] std::uint32_t total() const noexcept {
    return reads + writes;
  }
  Cost& operator+=(const Cost& other) noexcept {
    reads += other.reads;
    writes += other.writes;
    return *this;
  }
  [[nodiscard]] friend Cost operator+(Cost a, const Cost& b) noexcept {
    a += b;
    return a;
  }
  [[nodiscard]] friend bool operator==(const Cost&, const Cost&) = default;
};

/// A task descriptor as submitted by the master core: function pointer plus
/// the parameter list. `serial` is simulation bookkeeping (the submission
/// index used to join trace metadata back on); it costs no hardware bits.
struct TaskDescriptor {
  std::uint64_t fn = 0;        ///< function pointer surrogate
  std::uint64_t serial = 0;    ///< submission order / trace join key
  std::vector<Param> params;

  /// Bus words needed to submit this descriptor: one word carries the
  /// task ID + function pointer, then one word per parameter.
  [[nodiscard]] std::size_t submit_words() const noexcept {
    return 1 + params.size();
  }

  /// Returns a human-readable problem description if the descriptor is
  /// malformed (duplicate base addresses — the programmer should have used
  /// a single inout parameter — or zero-size parameters), empty otherwise.
  [[nodiscard]] std::string validate() const;
};

}  // namespace nexuspp::core
