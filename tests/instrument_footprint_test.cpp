// Per-connection memory footprint of a socket pair, the quantity that
// bounds how many streams one simulation can hold.  Builds 1024 muxed and
// 1024 classic pairs with the KV benchmark's stream options and bounds both
// the heap they hold (mallinfo2) and the allocations they make (a counting
// operator new, replaced for this test binary only).
//
// A socket's schema instruments live by value in its instrument block, a
// histogram's buckets are allocated on first Record, and the per-connection
// queues (common/fifo.hpp) allocate on first push, so a freshly connected
// pair holds little beyond its sockets and its 2 KiB rings.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "exs/exs.hpp"

#ifndef EXS_SANITIZED
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Counts every allocation of this binary.  The matching operator delete
// is the library's, which releases with free().  Kept out of line: GCC's
// -Wmismatched-new-delete otherwise pairs the inlined malloc() with the
// library's operator delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
#endif

namespace exs {
namespace {

using simnet::HardwareProfile;

#ifndef EXS_SANITIZED
constexpr std::size_t kPairs = 1024;

// The KV benchmark's token-sized streams.
StreamOptions KvStreamOptions() {
  StreamOptions opts;
  opts.credits = 8;
  opts.intermediate_buffer_bytes = 2 * kKiB;
  opts.max_wwi_chunk = 2 * kKiB;
  return opts;
}

struct Footprint {
  double bytes_per_pair;
  double allocations_per_pair;
};

// Heap held and allocations made by kPairs calls of `create_pair`.
template <typename F>
Footprint MeasurePairs(const char* label, F&& create_pair) {
  const std::size_t heap_before = mallinfo2().uordblks;
  const std::uint64_t allocations_before = g_allocations.load();
  for (std::size_t i = 0; i < kPairs; ++i) create_pair();
  Footprint f{
      static_cast<double>(mallinfo2().uordblks - heap_before) / kPairs,
      static_cast<double>(g_allocations.load() - allocations_before) /
          kPairs};
  ::testing::Test::RecordProperty("bytes_per_pair",
                                  std::to_string(f.bytes_per_pair));
  ::testing::Test::RecordProperty("allocations_per_pair",
                                  std::to_string(f.allocations_per_pair));
  std::printf("%s pair: %.0f heap bytes, %.1f allocations\n", label,
              f.bytes_per_pair, f.allocations_per_pair);
  return f;
}
#endif

TEST(InstrumentFootprint, MuxedPairStaysSmall) {
#ifdef EXS_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime replaces malloc; heap figures are "
                  "meaningless under it";
#else
  Simulation sim(HardwareProfile::FdrInfiniBand(), 1, true);
  MuxOptions mopts;
  mopts.width = 8;
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);
  const StreamOptions opts = KvStreamOptions();
  Footprint f =
      MeasurePairs("muxed", [&] { sim.CreateMuxedPair(g0, g1, opts); });
  EXPECT_LE(f.bytes_per_pair, 14 * 1024);
  EXPECT_LE(f.allocations_per_pair, 32);
#endif
}

// A classic pair also owns its queue pair, completion queues and control
// channel on each side.
TEST(InstrumentFootprint, ClassicPairStaysSmall) {
#ifdef EXS_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime replaces malloc; heap figures are "
                  "meaningless under it";
#else
  Simulation sim(HardwareProfile::FdrInfiniBand(), 1, true);
  const StreamOptions opts = KvStreamOptions();
  Footprint f = MeasurePairs("classic", [&] {
    sim.CreateConnectedPair(SocketType::kStream, opts);
  });
  EXPECT_LE(f.bytes_per_pair, 21 * 1024);
  EXPECT_LE(f.allocations_per_pair, 96);
#endif
}

}  // namespace
}  // namespace exs
