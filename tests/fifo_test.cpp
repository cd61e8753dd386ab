// exs::Fifo against std::deque as the reference model, plus the contract
// the deque did not have: nothing is allocated before the first push, the
// ring never shrinks, and every element constructed is destroyed exactly
// once across growth, clear, assignment and destruction.
//
// Allocations are counted by a replaced operator new, so this test gets a
// binary of its own; the counting checks are skipped under a sanitizer
// runtime, which supplies its own allocator.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <utility>

#include "common/fifo.hpp"
#include "common/rng.hpp"

#ifndef EXS_SANITIZED
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The matching operator delete is the library's, which releases with
// free().  Kept out of line: GCC's -Wmismatched-new-delete otherwise pairs
// the inlined malloc() with the library's operator delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
#endif

namespace exs {
namespace {

// Long enough to leave the small-string buffer, so a relocation that
// copied bytes instead of moving would show under the sanitizers.
std::string Value(std::uint64_t n) {
  return "element-" + std::to_string(n) + "-past-the-small-string-buffer";
}

template <typename T>
void ExpectSame(const Fifo<T>& fifo, const std::deque<T>& ref) {
  ASSERT_EQ(fifo.size(), ref.size());
  ASSERT_EQ(fifo.empty(), ref.empty());
  if (ref.empty()) return;
  EXPECT_EQ(fifo.front(), ref.front());
  EXPECT_EQ(fifo.back(), ref.back());
  EXPECT_TRUE(std::equal(fifo.begin(), fifo.end(), ref.begin(), ref.end()));
}

TEST(Fifo, MatchesDequeOverASeededScript) {
  Rng rng(20141);
  Fifo<std::string> fifo;
  std::deque<std::string> ref;
  std::uint64_t next = 0;
  for (int step = 0; step < 10000; ++step) {
    // Alternate push-heavy and pop-heavy phases, so the ring fills while
    // its head has moved: growth happens on a wrapped ring.
    const bool filling = (step / 250) % 2 == 0;
    const std::uint64_t op = rng.NextBelow(100);
    if (op < (filling ? 55u : 30u)) {
      fifo.push_back(Value(next));
      ref.push_back(Value(next));
      ++next;
    } else if (op < (filling ? 60u : 40u)) {
      EXPECT_EQ(fifo.emplace_back(Value(next)), Value(next));
      ref.emplace_back(Value(next));
      ++next;
    } else if (op < 85) {
      if (!ref.empty()) {
        fifo.pop_front();
        ref.pop_front();
      }
    } else if (op < 90) {
      if (!ref.empty()) {
        const std::size_t i = rng.NextBelow(ref.size());
        EXPECT_EQ(fifo[i], ref[i]);
        fifo[i] += "!";
        ref[i] += "!";
      }
    } else if (op < 93) {
      Fifo<std::string> copy(fifo);
      ExpectSame(copy, ref);
      fifo = std::move(copy);
    } else if (op < 96) {
      Fifo<std::string> moved(std::move(fifo));
      EXPECT_TRUE(fifo.empty());  // NOLINT: a moved-from Fifo is empty
      fifo = moved;               // copy-assign back
    } else if (op < 99) {
      const Fifo<std::string>& view = fifo;
      std::size_t i = 0;
      for (const std::string& value : view) EXPECT_EQ(value, ref[i++]);
      EXPECT_EQ(i, ref.size());
    } else {
      fifo.clear();
      ref.clear();
    }
    ExpectSame(fifo, ref);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(next, 4000u);
}

TEST(Fifo, GrowsWhileWrappedKeepingOrder) {
  // For every fill level, advance the head by popping half, then push
  // past the capacity so the ring grows while its contents wrap.
  for (std::uint64_t n = 1; n <= 64; ++n) {
    Fifo<std::uint64_t> fifo;
    std::deque<std::uint64_t> ref;
    for (std::uint64_t i = 0; i < n; ++i) {
      fifo.push_back(i);
      ref.push_back(i);
    }
    for (std::uint64_t i = 0; i < n / 2; ++i) {
      fifo.pop_front();
      ref.pop_front();
    }
    for (std::uint64_t i = n; i < 2 * n + 1; ++i) {
      fifo.push_back(i);
      ref.push_back(i);
    }
    ExpectSame(fifo, ref);
  }
}

TEST(Fifo, PushingAnElementOfItselfSurvivesGrowth) {
  Fifo<std::string> fifo;
  fifo.push_back(Value(0));
  for (int i = 0; i < 40; ++i) fifo.push_back(fifo.front());
  for (const std::string& value : fifo) EXPECT_EQ(value, Value(0));
  fifo.emplace_back(fifo.back());
  EXPECT_EQ(fifo.size(), 42u);
  EXPECT_EQ(fifo.back(), Value(0));
}

// Records every live instance by address: a second destruction, or one of
// an address never constructed, counts as an error.
struct Tracked {
  static std::set<const Tracked*>& Live() {
    static std::set<const Tracked*> live;
    return live;
  }
  static inline int errors = 0;

  explicit Tracked(int v) : value(v) { Live().insert(this); }
  Tracked(const Tracked& other) : value(other.value) { Live().insert(this); }
  Tracked(Tracked&& other) noexcept : value(other.value) {
    other.value = -1;
    Live().insert(this);
  }
  // A Fifo constructs and destroys elements; it never assigns them.
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    if (Live().erase(this) != 1) ++errors;
  }

  int value;
};

TEST(Fifo, DestroysEveryElementExactlyOnce) {
  Tracked::errors = 0;
  {
    Fifo<Tracked> a;
    for (int i = 0; i < 37; ++i) a.emplace_back(i);  // grows several times
    for (int i = 0; i < 20; ++i) a.pop_front();
    for (int i = 37; i < 70; ++i) a.emplace_back(i);  // grows while wrapped
    EXPECT_EQ(a.front().value, 20);
    EXPECT_EQ(a.back().value, 69);
    EXPECT_EQ(Tracked::Live().size(), a.size());

    Fifo<Tracked> b(a);
    EXPECT_EQ(Tracked::Live().size(), 2 * a.size());
    b.clear();
    EXPECT_EQ(Tracked::Live().size(), a.size());
    for (int i = 0; i < 5; ++i) b.emplace_back(100 + i);

    b = std::move(a);  // b's five die, a's move in
    EXPECT_EQ(Tracked::Live().size(), b.size());
    EXPECT_EQ(b.front().value, 20);

    Fifo<Tracked> c;
    c.emplace_back(7);
    c = b;  // c's one dies, b's are copied
    EXPECT_EQ(Tracked::Live().size(), 2 * b.size());
    EXPECT_EQ(c.back().value, 69);
  }
  EXPECT_TRUE(Tracked::Live().empty());
  EXPECT_EQ(Tracked::errors, 0);
}

TEST(Fifo, HoldsMoveOnlyElements) {
  Fifo<std::unique_ptr<int>> fifo;
  for (int i = 0; i < 50; ++i) fifo.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(*fifo.front(), i);
    fifo.pop_front();
  }
  for (int i = 50; i < 100; ++i) fifo.emplace_back(new int(i));
  Fifo<std::unique_ptr<int>> moved(std::move(fifo));
  Fifo<std::unique_ptr<int>> assigned;
  assigned = std::move(moved);
  int expected = 30;
  for (const auto& p : assigned) EXPECT_EQ(*p, expected++);
  EXPECT_EQ(expected, 100);
}

TEST(Fifo, AllocatesNothingUntilTheFirstPushAndNeverShrinks) {
#ifdef EXS_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime replaces the allocator";
#else
  const std::uint64_t before = g_allocations.load();
  {
    Fifo<std::string> empty;
    Fifo<std::string> copy(empty);
    Fifo<std::string> moved(std::move(copy));
    moved = empty;
    empty.clear();
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.begin(), empty.end());
  }
  EXPECT_EQ(g_allocations.load(), before);

  Fifo<std::uint64_t> fifo;
  for (std::uint64_t i = 0; i < 64; ++i) fifo.push_back(i);
  const std::uint64_t grown = g_allocations.load();
  EXPECT_GT(grown, before);
  // Drained and cleared, the ring keeps its capacity: refilling to the
  // same depth, and a steady push/pop stream, allocate nothing.
  while (!fifo.empty()) fifo.pop_front();
  for (std::uint64_t i = 0; i < 64; ++i) fifo.push_back(i);
  fifo.clear();
  for (std::uint64_t i = 0; i < 10000; ++i) {
    fifo.push_back(i);
    if (fifo.size() > 32) fifo.pop_front();
  }
  EXPECT_EQ(g_allocations.load(), grown);
#endif
}

}  // namespace
}  // namespace exs
