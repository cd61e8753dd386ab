#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <queue>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "simnet/event_scheduler.hpp"

namespace exs::simnet {
namespace {

TEST(EventScheduler, RunsEventsInTimeOrder) {
  EventScheduler sched;
  std::vector<int> order;
  sched.ScheduleAt(300, [&] { order.push_back(3); });
  sched.ScheduleAt(100, [&] { order.push_back(1); });
  sched.ScheduleAt(200, [&] { order.push_back(2); });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.Now(), 300);
}

TEST(EventScheduler, TiesBreakInSchedulingOrder) {
  EventScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.ScheduleAt(50, [&order, i] { order.push_back(i); });
  }
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventScheduler, ScheduleAfterUsesCurrentTime) {
  EventScheduler sched;
  SimTime seen = -1;
  sched.ScheduleAt(100, [&] {
    sched.ScheduleAfter(50, [&] { seen = sched.Now(); });
  });
  sched.Run();
  EXPECT_EQ(seen, 150);
}

TEST(EventScheduler, CancelPreventsExecution) {
  EventScheduler sched;
  bool ran = false;
  EventHandle h = sched.ScheduleAt(10, [&] { ran = true; });
  EXPECT_TRUE(h.Pending());
  h.Cancel();
  EXPECT_FALSE(h.Pending());
  sched.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sched.ExecutedCount(), 0u);
}

TEST(EventScheduler, CancelAfterExecutionIsHarmless) {
  EventScheduler sched;
  EventHandle h = sched.ScheduleAt(10, [] {});
  sched.Run();
  EXPECT_FALSE(h.Pending());
  h.Cancel();  // no-op
}

TEST(EventScheduler, RunUntilStopsAtDeadline) {
  EventScheduler sched;
  std::vector<int> order;
  sched.ScheduleAt(100, [&] { order.push_back(1); });
  sched.ScheduleAt(200, [&] { order.push_back(2); });
  sched.RunUntil(150);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sched.Now(), 150);
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventScheduler, RunForAdvancesRelative) {
  EventScheduler sched;
  sched.ScheduleAt(100, [] {});
  sched.RunFor(100);
  EXPECT_EQ(sched.Now(), 100);
  sched.RunFor(25);
  EXPECT_EQ(sched.Now(), 125);
}

TEST(EventScheduler, RunUntilPredicate) {
  EventScheduler sched;
  int count = 0;
  for (int t = 1; t <= 10; ++t) {
    sched.ScheduleAt(t, [&] { ++count; });
  }
  EXPECT_TRUE(sched.RunUntilPredicate([&] { return count == 4; }));
  EXPECT_EQ(count, 4);
  EXPECT_FALSE(sched.RunUntilPredicate([&] { return count == 100; }));
  EXPECT_EQ(count, 10);
}

TEST(EventScheduler, SchedulingIntoThePastThrows) {
  EventScheduler sched;
  sched.ScheduleAt(100, [] {});
  sched.Run();
  EXPECT_THROW(sched.ScheduleAt(50, [] {}), InvariantViolation);
}

TEST(EventScheduler, EventsScheduledDuringRunExecute) {
  EventScheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sched.ScheduleAfter(5, recurse);
  };
  sched.ScheduleAt(0, recurse);
  sched.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sched.Now(), 45);
}

TEST(EventScheduler, PendingCountIgnoresCancelled) {
  EventScheduler sched;
  EventHandle a = sched.ScheduleAt(10, [] {});
  sched.ScheduleAt(20, [] {});
  EXPECT_EQ(sched.PendingCount(), 2u);
  a.Cancel();
  EXPECT_EQ(sched.PendingCount(), 1u);
}

TEST(EventScheduler, StaleHandleDoesNotReachReusedSlot) {
  EventScheduler sched;
  EventHandle stale = sched.ScheduleAt(10, [] {});
  sched.Run();
  // The executed event's slot is free, so the next event reuses it.
  bool ran = false;
  EventHandle fresh = sched.ScheduleAt(20, [&] { ran = true; });
  EXPECT_FALSE(stale.Pending());
  stale.Cancel();
  EXPECT_TRUE(fresh.Pending());
  EXPECT_EQ(sched.PendingCount(), 1u);
  sched.Run();
  EXPECT_TRUE(ran);
}

TEST(EventScheduler, HandleOutlivesItsScheduler) {
  EventHandle pending, done;
  {
    EventScheduler sched;
    done = sched.ScheduleAt(1, [] {});
    sched.Run();
    pending = sched.ScheduleAt(5, [] {});
  }
  EventHandle copy = pending;
  EXPECT_FALSE(pending.Pending());
  EXPECT_FALSE(done.Pending());
  pending.Cancel();
  done.Cancel();
  EXPECT_FALSE(copy.Pending());
  copy.Cancel();
}

TEST(EventScheduler, CancelledEventNeitherAdvancesClockNorCounts) {
  EventScheduler sched;
  EventHandle h = sched.ScheduleAt(100, [] { FAIL() << "cancelled ran"; });
  h.Cancel();
  EXPECT_FALSE(sched.Step());
  EXPECT_EQ(sched.Now(), 0);
  EXPECT_EQ(sched.ExecutedCount(), 0u);

  h = sched.ScheduleAt(150, [] { FAIL() << "cancelled ran"; });
  bool ran = false;
  sched.ScheduleAt(300, [&] { ran = true; });
  h.Cancel();
  sched.RunUntil(200);
  EXPECT_EQ(sched.Now(), 200);  // the deadline, not the cancelled event
  EXPECT_EQ(sched.ExecutedCount(), 0u);
  EXPECT_FALSE(ran);
  h = sched.ScheduleAt(250, [] { FAIL() << "cancelled ran"; });
  h.Cancel();
  sched.RunUntil(260);
  EXPECT_EQ(sched.Now(), 260);
  EXPECT_EQ(sched.ExecutedCount(), 0u);
  sched.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched.Now(), 300);
  EXPECT_EQ(sched.ExecutedCount(), 1u);
  EXPECT_TRUE(sched.Empty());
}

TEST(EventScheduler, MoveOnlyCaptureRuns) {
  EventScheduler sched;
  int seen = 0;
  auto value = std::make_unique<int>(42);
  sched.ScheduleAt(1, [&seen, v = std::move(value)] { seen = *v; });
  sched.Run();
  EXPECT_EQ(seen, 42);
}

// Counts live instances, so a callable destroyed twice (or never) shows.
struct Counted {
  static inline int live = 0;
  Counted() { ++live; }
  Counted(const Counted&) { ++live; }
  Counted(Counted&&) noexcept { ++live; }
  ~Counted() { --live; }
};

TEST(EventScheduler, CaptureLargerThanInlineBufferRunsAndIsDestroyedOnce) {
  struct Fat {
    Counted counted;
    std::array<std::uint8_t, 2 * Callback::kInlineBytes> pad{};
    int* runs;
    void operator()() const { *runs += 1 + pad[7]; }
  };
  static_assert(sizeof(Fat) > Callback::kInlineBytes);
  int runs = 0;
  {
    EventScheduler sched;
    sched.ScheduleAt(1, Fat{{}, {}, &runs});
    EventHandle cancelled = sched.ScheduleAt(2, Fat{{}, {}, &runs});
    sched.ScheduleAt(3, Fat{{}, {}, &runs});  // never run: scheduler dies
    EXPECT_EQ(Counted::live, 3);
    cancelled.Cancel();
    EXPECT_EQ(Counted::live, 2);  // released at cancel, not at pop
    sched.RunUntil(2);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(Counted::live, 1);
  }
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(Counted::live, 0);
}

// A seeded script of same-instant ties, events scheduled from inside
// events, and random cancels must run in exactly the order of a reference
// model built on std::priority_queue ordered by (time, scheduling order).
TEST(EventScheduler, MatchesReferenceQueueOnRandomScript) {
  constexpr std::uint32_t kEvents = 10000;
  constexpr std::uint32_t kInitial = kEvents / 2;

  // Real scheduler.
  std::vector<std::uint32_t> order;
  {
    EventScheduler sched;
    Rng rng(2024);
    std::vector<EventHandle> handles;
    std::function<void(std::uint32_t)> run = [&](std::uint32_t id) {
      order.push_back(id);
      switch (rng.NextBelow(5)) {
        case 0:
        case 1:
        case 2:
          if (handles.size() < kEvents) {
            const auto child = static_cast<std::uint32_t>(handles.size());
            handles.push_back(sched.ScheduleAfter(
                static_cast<SimDuration>(rng.NextBelow(3)),
                [&run, child] { run(child); }));
          }
          break;
        case 3:
          handles[rng.NextBelow(handles.size())].Cancel();
          break;
        default:
          break;
      }
    };
    for (std::uint32_t id = 0; id < kInitial; ++id) {
      handles.push_back(
          sched.ScheduleAt(static_cast<SimTime>(rng.NextBelow(100)),
                           [&run, id] { run(id); }));
    }
    for (std::uint32_t i = 0; i < kInitial / 4; ++i) {
      handles[rng.NextBelow(handles.size())].Cancel();
    }
    sched.Run();
    EXPECT_EQ(handles.size(), kEvents);
  }

  // Reference model: the same draws against a plain priority queue.
  std::vector<std::uint32_t> expected;
  {
    Rng rng(2024);
    using Item = std::tuple<SimTime, std::uint64_t, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
    std::set<std::uint32_t> cancelled;
    std::uint64_t seq = 0;
    std::uint32_t issued = 0;
    for (; issued < kInitial; ++issued) {
      queue.emplace(static_cast<SimTime>(rng.NextBelow(100)), seq++, issued);
    }
    for (std::uint32_t i = 0; i < kInitial / 4; ++i) {
      cancelled.insert(static_cast<std::uint32_t>(rng.NextBelow(issued)));
    }
    while (!queue.empty()) {
      const auto [when, unused, id] = queue.top();
      queue.pop();
      if (cancelled.count(id) != 0) continue;
      expected.push_back(id);
      switch (rng.NextBelow(5)) {
        case 0:
        case 1:
        case 2:
          if (issued < kEvents) {
            queue.emplace(when + static_cast<SimTime>(rng.NextBelow(3)),
                          seq++, issued++);
          }
          break;
        case 3:
          // Cancelling an event that already ran is a no-op in both.
          cancelled.insert(static_cast<std::uint32_t>(rng.NextBelow(issued)));
          break;
        default:
          break;
      }
    }
  }
  EXPECT_GT(order.size(), kEvents / 2);
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace exs::simnet
