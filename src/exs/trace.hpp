// Protocol tracing: the record the invariant checker replays.
//
// When enabled on a socket, every protocol-relevant action — ADVERTs sent,
// received, accepted and discarded; direct and indirect transfers posted
// and arriving; copies; ACKs; phase changes — is recorded with its
// timestamp and the live sequence/phase values.  exs/invariant_checker.hpp
// then checks the statements the paper *proves* (§IV-A) against what
// actually happened.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/units.hpp"

namespace exs {

enum class TraceEventType : std::uint8_t {
  // Sender-side (outgoing stream).
  kAdvertReceived,
  kAdvertAccepted,
  kAdvertDiscarded,
  kDirectPosted,
  kIndirectPosted,
  kSenderPhaseChanged,
  kAckReceived,
  // Receiver-side (incoming stream).
  kAdvertSent,
  kDirectArrived,
  kIndirectArrived,
  kCopyOut,
  kAckSent,
  kReceiverPhaseChanged,
  // Coalescing (appended so earlier numeric values — and with them any
  // recorded golden fingerprints — stay stable).
  kSendStaged,       ///< sender: a small send entered the staging buffer
  kCoalesceFlushed,  ///< sender: staged bytes merged into one queued WWI
                     ///< (len = merged bytes, msg_seq = member count,
                     ///<  msg_phase = CoalesceFlushReason)
  kAckPiggybacked,   ///< receiver: ACK count folded into an ADVERT
  kZeroLengthSend,   ///< sender: zero-length Submit (completes instantly)
  // Fatal-fault recovery (appended — earlier values stay stable).
  kTransportKilled,  ///< either half: the transport entered the error state
  kResumeTx,         ///< sender resumed: seq = delivered frontier it rewound
                     ///< to, len = frontier, msg_phase = resume phase
  kResumeRx,         ///< receiver resumed: seq = S_r at resume, len =
                     ///< delivered frontier, msg_phase = resume phase
};

const char* ToString(TraceEventType type);

/// Why a coalescing staging buffer was flushed; recorded in the msg_phase
/// field of kCoalesceFlushed events and counted per reason in the metrics
/// registry (tx.coalesce_flush_*).
enum class CoalesceFlushReason : std::uint8_t {
  kMaxBytes,     ///< staging buffer filled (or a stage would overflow it)
  kTimeout,      ///< Coalesce::max_delay expired
  kAdvert,       ///< an ADVERT arrived — merged bytes may now go direct
  kPhaseChange,  ///< the sender phase advanced with bytes still staged
  kClose,        ///< Close(): the SHUTDOWN must trail all staged data
  kOrdering,     ///< a non-eligible send arrived; staged bytes go first
};

const char* ToString(CoalesceFlushReason reason);

struct TraceEvent {
  SimTime time = 0;
  TraceEventType type = TraceEventType::kAdvertSent;
  /// Local sequence number (S_s or S_r) when the event was recorded.
  std::uint64_t seq = 0;
  /// Local phase (P_s or P_r) when the event was recorded.
  std::uint64_t phase = 0;
  /// Event payload: transfer/copy length, or the ADVERT's length.
  std::uint64_t len = 0;
  /// ADVERT events: the sequence number carried in the message.
  std::uint64_t msg_seq = 0;
  /// ADVERT events: the phase carried in the message.
  std::uint64_t msg_phase = 0;
};

class TraceLog {
 public:
  /// Tracing is off until enabled; recording to a disabled log is a no-op.
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Bound the log to `capacity` events (0 = unbounded, the default).
  /// Once full, further events are counted in dropped() and discarded, so
  /// the retained prefix stays contiguous — the invariant checker remains
  /// sound on a truncated log, it just sees a shorter run.
  void SetCapacity(std::size_t capacity) { capacity_ = capacity; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Mirror the capacity-drop count into a registry counter so truncation
  /// is visible in metrics snapshots (JSON/CSV), not only to code that
  /// polls dropped().  May be null to detach.
  void SetDropCounter(metrics::Counter* counter) { drop_counter_ = counter; }

  void Record(const TraceEvent& event) {
    if (!enabled_) return;
    if (capacity_ != 0 && events_.size() >= capacity_) {
      ++dropped_;
      if (drop_counter_ != nullptr) drop_counter_->Increment();
      return;
    }
    events_.push_back(event);
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  void Clear() {
    events_.clear();
    dropped_ = 0;
  }

  /// Human-readable dump (debugging aid and example output).
  std::string Format() const;

 private:
  bool enabled_ = false;
  std::size_t capacity_ = 0;
  std::uint64_t dropped_ = 0;
  metrics::Counter* drop_counter_ = nullptr;
  std::vector<TraceEvent> events_;
};

}  // namespace exs
