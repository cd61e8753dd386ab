// The per-socket completion event queue.
//
// Almost every EXS call is asynchronous: the request is queued and control
// returns immediately; the completion arrives here (§II-A).  Two consumer
// styles are supported, mirroring the library the paper describes:
//
//   * handler mode — the application installs a callback; each event costs
//     the profile's per-event CPU time on the node, which is how
//     application reaction time (e.g. reposting a receive) enters the
//     timing model;
//   * polling mode — tests and simple examples poll Poll() directly with
//     no modelled cost.
//
// A third consumer sits on top of polling mode: the engine's epoll-like
// readiness API.  A readiness watcher fires exactly on the empty→non-empty
// edge (never while events remain queued), which is what lets the progress
// engine keep one ready-list instead of scanning every socket per tick.
#pragma once

#include <functional>

#include "common/fifo.hpp"
#include "common/units.hpp"
#include "simnet/cpu.hpp"
#include "exs/types.hpp"

namespace exs {

class EventQueue {
 public:
  EventQueue(simnet::Cpu& cpu, SimDuration per_event_cpu)
      : cpu_(&cpu), per_event_cpu_(per_event_cpu) {}

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Install a handler; queued events are flushed to it.  Events delivered
  /// through the handler are charged to the node CPU.
  void SetHandler(std::function<void(const Event&)> handler) {
    handler_ = std::move(handler);
    while (handler_ && !queue_.empty()) {
      Event ev = queue_.front();
      queue_.pop_front();
      Dispatch(ev);
    }
  }

  bool Poll(Event* out) {
    if (queue_.empty()) return false;
    *out = queue_.front();
    queue_.pop_front();
    return true;
  }

  /// Edge-triggered readiness for polling consumers: fires once when the
  /// queue goes empty→non-empty, then re-arms only after the consumer has
  /// drained it (Poll() returning false).  Installing a watcher on a
  /// non-empty queue fires immediately.  Mutually exclusive with handler
  /// mode — a handler never leaves events queued, so there is no edge.
  void SetReadinessWatcher(std::function<void()> watcher) {
    watcher_ = std::move(watcher);
    watcher_armed_ = true;
    if (watcher_ && !queue_.empty() && !closed_) FireWatcher();
  }

  /// Discard pending events and reject future pushes.  A closed queue
  /// never signals readiness again; Poll() returns false forever.  Used
  /// when a socket is torn down while events are still queued — the
  /// progress engine must not dispatch into a dead socket.
  void Close() {
    closed_ = true;
    dropped_on_close_ += queue_.size();
    queue_.clear();
    watcher_ = nullptr;
  }

  bool Closed() const { return closed_; }
  std::size_t Depth() const { return queue_.size(); }
  std::uint64_t TotalEvents() const { return total_; }
  std::uint64_t DroppedOnClose() const { return dropped_on_close_; }

  /// Internal: called by the socket machinery when a request completes.
  void Push(const Event& ev) {
    if (closed_) {
      ++dropped_on_close_;
      return;
    }
    ++total_;
    if (handler_) {
      Dispatch(ev);
      return;
    }
    bool was_empty = queue_.empty();
    queue_.push_back(ev);
    if (was_empty && watcher_ && watcher_armed_) FireWatcher();
  }

  /// Internal: the progress engine calls this after draining the queue so
  /// the next Push fires the watcher again.
  void RearmWatcher() {
    if (!closed_) watcher_armed_ = true;
  }

 private:
  void Dispatch(const Event& ev) {
    cpu_->Submit(per_event_cpu_, [this, ev] {
      if (!closed_) handler_(ev);
    });
  }

  void FireWatcher() {
    watcher_armed_ = false;  // one edge per drain cycle
    watcher_();
  }

  simnet::Cpu* cpu_;
  SimDuration per_event_cpu_;
  std::function<void(const Event&)> handler_;
  std::function<void()> watcher_;
  bool watcher_armed_ = true;
  bool closed_ = false;
  Fifo<Event> queue_;
  std::uint64_t total_ = 0;
  std::uint64_t dropped_on_close_ = 0;
};

}  // namespace exs
