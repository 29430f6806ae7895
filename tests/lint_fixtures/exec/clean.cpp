// Fixture: a file that exercises every rule's *shape* without violating
// any of them — must produce zero diagnostics. Synchronization types use
// the chk:: spellings required in exec/ paths (the fixture is linted,
// never compiled, so no include of the real header is needed).
#include <cstdint>
#include <vector>

namespace fixture {

chk::Atomic<std::uint64_t> counter{0};

// NEXUS_HOT_PATH
inline std::uint64_t hot_but_clean(const std::vector<std::uint64_t>& in) {
  std::uint64_t sum = 0;
  for (const auto v : in) sum += v;
  counter.fetch_add(sum, std::memory_order_relaxed);
  return counter.load(std::memory_order_acquire);
}

}  // namespace fixture
