// Per-connection memory footprint of a muxed socket pair, the quantity
// that bounds how many streams one simulation can hold.  Builds 1024
// muxed pairs with the KV benchmark's stream options and bounds both the
// heap they hold (mallinfo2) and the allocations they make (a counting
// operator new, replaced for this test binary only).
//
// A socket's schema instruments live by value in its instrument block and
// a histogram's buckets are allocated on first Record, so a freshly
// connected pair should hold well under half of what a string-keyed
// instrument map per socket costs.
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

TEST(InstrumentFootprint, MuxedPairStaysSmall) {
#ifdef EXS_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime replaces malloc; heap figures are "
                  "meaningless under it";
#else
  constexpr std::size_t kPairs = 1024;
  constexpr double kMaxBytesPerPair = 24 * 1024;
  constexpr double kMaxAllocationsPerPair = 64;

  Simulation sim(HardwareProfile::FdrInfiniBand(), 1, true);
  MuxOptions mopts;
  mopts.width = 8;
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);
  // The KV benchmark's token-sized streams.
  StreamOptions opts;
  opts.credits = 8;
  opts.intermediate_buffer_bytes = 2 * kKiB;
  opts.max_wwi_chunk = 2 * kKiB;

  const std::size_t heap_before = mallinfo2().uordblks;
  const std::uint64_t allocations_before = g_allocations.load();
  for (std::size_t i = 0; i < kPairs; ++i) sim.CreateMuxedPair(g0, g1, opts);
  const double bytes_per_pair =
      static_cast<double>(mallinfo2().uordblks - heap_before) / kPairs;
  const double allocations_per_pair =
      static_cast<double>(g_allocations.load() - allocations_before) / kPairs;

  RecordProperty("bytes_per_pair", std::to_string(bytes_per_pair));
  RecordProperty("allocations_per_pair", std::to_string(allocations_per_pair));
  EXPECT_LE(bytes_per_pair, kMaxBytesPerPair);
  EXPECT_LE(allocations_per_pair, kMaxAllocationsPerPair);
  std::printf("muxed pair: %.0f heap bytes, %.1f allocations\n",
              bytes_per_pair, allocations_per_pair);
#endif
}

}  // namespace
}  // namespace exs
