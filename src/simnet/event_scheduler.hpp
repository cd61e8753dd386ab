// Discrete-event scheduler: the simulated clock and event queue that every
// other component (links, NICs, CPUs, protocol timers) runs on.
//
// Events scheduled for the same instant execute in scheduling order (a
// monotone sequence number breaks ties), which makes runs bit-reproducible.
//
// The queue allocates nothing per event in steady state.  Callbacks live
// in a pooled slot table (fixed-size chunks, so a slot never moves while
// its callback runs) and are stored inline (simnet::Callback); the
// priority queue is a binary heap of small {when, seq, slot} entries.  A
// slot returns to the free list when its heap entry is popped, whether
// the event ran or was cancelled.  Each slot carries a generation that
// advances when its event runs or is cancelled, and an EventHandle is a
// (slot, generation) pair, so a handle to a finished event can never
// reach the event that reuses its slot.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/sim_clock.hpp"
#include "common/units.hpp"
#include "simnet/callback.hpp"

namespace exs::simnet {

class EventScheduler;

namespace detail {
/// Shared between a scheduler and the handles it issued: it outlives the
/// scheduler while any handle remains, so a late handle finds `scheduler`
/// null instead of dangling.  The simulator is single-threaded, so the
/// count is a plain integer.
struct SchedulerAnchor {
  EventScheduler* scheduler = nullptr;
  std::uint32_t refs = 0;
};
}  // namespace detail

/// Cancellation handle for a scheduled event.  Default-constructed handles
/// are inert; cancelling an already-run or already-cancelled event, or one
/// whose scheduler is gone, is a no-op.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(const EventHandle& other)
      : anchor_(other.anchor_), slot_(other.slot_), gen_(other.gen_) {
    if (anchor_ != nullptr) ++anchor_->refs;
  }
  EventHandle(EventHandle&& other) noexcept
      : anchor_(std::exchange(other.anchor_, nullptr)),
        slot_(other.slot_),
        gen_(other.gen_) {}
  EventHandle& operator=(EventHandle other) noexcept {
    std::swap(anchor_, other.anchor_);
    slot_ = other.slot_;
    gen_ = other.gen_;
    return *this;
  }
  ~EventHandle() { Release(); }

  void Cancel();

  /// True while the event is still scheduled to run.
  bool Pending() const;

 private:
  friend class EventScheduler;
  EventHandle(detail::SchedulerAnchor* anchor, std::uint32_t slot,
              std::uint32_t gen)
      : anchor_(anchor), slot_(slot), gen_(gen) {
    ++anchor_->refs;
  }
  void Release() {
    if (anchor_ != nullptr && --anchor_->refs == 0) delete anchor_;
    anchor_ = nullptr;
  }

  detail::SchedulerAnchor* anchor_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class EventScheduler : public SimClock {
 public:
  EventScheduler() : anchor_(new detail::SchedulerAnchor{this, 1}) {}
  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;
  ~EventScheduler() override {
    anchor_->scheduler = nullptr;
    if (--anchor_->refs == 0) delete anchor_;
  }

  SimTime Now() const override { return now_; }

  template <typename F>
  EventHandle ScheduleAt(SimTime when, F&& fn) {
    EXS_CHECK_MSG(when >= now_, "cannot schedule into the past");
    const std::uint32_t index = AcquireSlot();
    Slot& slot = SlotAt(index);
    slot.fn = std::forward<F>(fn);
    heap_.push_back(Entry{when, next_seq_++, index});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_;
    return EventHandle(anchor_, index, slot.gen);
  }

  template <typename F>
  EventHandle ScheduleAfter(SimDuration delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Run the next pending event.  Returns false when the queue is empty.
  bool Step() {
    while (!heap_.empty()) {
      const Entry top = PopTop();
      Slot& slot = SlotAt(top.slot);
      if (slot.cancelled) {
        FreeSlot(top.slot, slot);
        continue;
      }
      now_ = top.when;
      ++slot.gen;  // from here on, handles read the event as done
      --live_;
      ++executed_;
      // Run in place: slots never move, and this one stays out of the
      // free list until the callback has returned (or thrown).
      struct Finish {
        EventScheduler* self;
        std::uint32_t index;
        Slot& slot;
        ~Finish() {
          slot.fn.Reset();
          self->FreeSlot(index, slot);
        }
      } finish{this, top.slot, slot};
      slot.fn();
      return true;
    }
    return false;
  }

  /// Run until the event queue drains.
  void Run() {
    while (Step()) {
    }
  }

  /// Run events with time <= deadline; afterwards Now() == deadline unless
  /// the queue drained earlier.
  void RunUntil(SimTime deadline) {
    for (;;) {
      // Prune cancelled entries first: a queue holding nothing else must
      // read as empty, and must not advance the clock.
      PruneCancelled();
      if (heap_.empty() || heap_.front().when > deadline) break;
      Step();
    }
    if (now_ < deadline) now_ = deadline;
  }

  void RunFor(SimDuration duration) { RunUntil(now_ + duration); }

  /// Run until `done()` returns true or the queue drains.  Returns whether
  /// the predicate was satisfied.
  bool RunUntilPredicate(const std::function<bool()>& done) {
    while (!done()) {
      if (!Step()) return done();
    }
    return true;
  }

  bool Empty() const { return live_ == 0; }

  /// Events scheduled and neither run nor cancelled.
  std::size_t PendingCount() const { return live_; }

  std::uint64_t ExecutedCount() const { return executed_; }

 private:
  friend class EventHandle;

  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
    bool cancelled = false;
  };
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

  Slot& SlotAt(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
  }

  std::uint32_t AcquireSlot() {
    if (free_.empty()) {
      const auto base =
          static_cast<std::uint32_t>(chunks_.size()) * kChunkSlots;
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
      // Hand out the new chunk lowest index first.
      for (std::uint32_t i = kChunkSlots; i-- > 0;) free_.push_back(base + i);
    }
    const std::uint32_t index = free_.back();
    free_.pop_back();
    return index;
  }

  void FreeSlot(std::uint32_t index, Slot& slot) {
    slot.cancelled = false;
    free_.push_back(index);
  }

  Entry PopTop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry top = heap_.back();
    heap_.pop_back();
    return top;
  }

  void PruneCancelled() {
    while (!heap_.empty() && SlotAt(heap_.front().slot).cancelled) {
      const Entry top = PopTop();
      FreeSlot(top.slot, SlotAt(top.slot));
    }
  }

  bool IsPending(std::uint32_t index, std::uint32_t gen) {
    return SlotAt(index).gen == gen;
  }

  void Cancel(std::uint32_t index, std::uint32_t gen) {
    Slot& slot = SlotAt(index);
    if (slot.gen != gen) return;  // already ran or cancelled
    ++slot.gen;
    slot.cancelled = true;
    --live_;
    slot.fn.Reset();  // release captured state now, not at pop time
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<Entry> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;
  detail::SchedulerAnchor* anchor_;
};

inline void EventHandle::Cancel() {
  if (anchor_ != nullptr && anchor_->scheduler != nullptr) {
    anchor_->scheduler->Cancel(slot_, gen_);
  }
  Release();
}

inline bool EventHandle::Pending() const {
  return anchor_ != nullptr && anchor_->scheduler != nullptr &&
         anchor_->scheduler->IsPending(slot_, gen_);
}

}  // namespace exs::simnet
