#include "exs/invariant_checker.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "exs/mux.hpp"
#include "exs/socket.hpp"

namespace exs {

std::string InvariantReport::Summary() const {
  std::ostringstream oss;
  if (violations.empty()) {
    oss << "invariants hold (" << events_checked << " events checked)";
  } else {
    oss << violations.size() << " invariant violation(s) over "
        << events_checked << " events:";
    for (const auto& v : violations) oss << "\n  " << v;
  }
  for (const auto& w : warnings) oss << "\n  warning: " << w;
  return oss.str();
}

void InvariantReport::Merge(const InvariantReport& other) {
  violations.insert(violations.end(), other.violations.begin(),
                    other.violations.end());
  warnings.insert(warnings.end(), other.warnings.begin(),
                  other.warnings.end());
  events_checked += other.events_checked;
  dropped_events += other.dropped_events;
}

namespace {

/// "t=<time>us <event>: <what>" — the form of every per-event finding.
std::string At(const TraceEvent& ev, const std::string& what) {
  std::ostringstream oss;
  oss << "t=" << ToMicroseconds(ev.time) << "us " << ToString(ev.type) << ": "
      << what;
  return oss.str();
}

void Violation(InvariantReport& report, const TraceEvent& ev,
               const std::string& what) {
  report.violations.push_back(At(ev, what));
}

/// Truncation / not-enabled gate shared by every entry point.  Returns
/// false when the log cannot be meaningfully checked at all.
bool AdmitLog(const TraceLog& log, const InvariantCheckOptions& opts,
              const char* label, InvariantReport& report) {
  if (!log.enabled()) {
    report.violations.push_back(std::string(label) +
                                ": tracing was not enabled — nothing to "
                                "check (call Socket::EnableTracing)");
    return false;
  }
  report.events_checked += log.events().size();
  report.dropped_events += log.dropped();
  if (log.dropped() > 0 && !opts.allow_truncated) {
    std::ostringstream oss;
    oss << label << ": trace truncated (" << log.dropped()
        << " events dropped): widen the TraceLog capacity "
           "(Socket::EnableTracing / TraceLog::SetCapacity) — a partial "
           "trace cannot prove the safety theorem";
    report.violations.push_back(oss.str());
  } else if (log.dropped() > 0) {
    // Tolerated truncation must still be *loud*: only the retained prefix
    // was validated, so a clean report proves less than it appears to.
    std::ostringstream oss;
    oss << label << ": trace truncated (" << log.dropped()
        << " events dropped) — only the retained prefix of "
        << log.events().size() << " events was checked";
    report.warnings.push_back(oss.str());
  }
  return true;
}

/// A transport kill or a resume — the recovery path (docs/PROTOCOL.md
/// §12).  Several rules change shape across a resume: posting re-bases at
/// the delivered frontier, stripe numbering restarts at zero, and the rail
/// count may shrink (failover), so the static rail bound and the cross-log
/// conservation rules no longer apply to the whole trace.
bool IsRecoveryMarker(TraceEventType type) {
  return type == TraceEventType::kTransportKilled ||
         type == TraceEventType::kResumeTx ||
         type == TraceEventType::kResumeRx;
}

struct RailChunk {
  std::uint64_t stripe;
  std::uint64_t len;
  bool indirect;
};

/// What one walk over a log leaves for the cross-log rules.
struct SideTally {
  std::uint64_t direct_bytes = 0;
  std::uint64_t direct_count = 0;
  std::uint64_t indirect_bytes = 0;
  std::uint64_t adverts = 0;  ///< SEQPACKET: ADVERTs sent or consumed
  /// Freed ring bytes: learned from ACKs at the sender; reported at the
  /// receiver, standalone or piggybacked on an ADVERT.
  std::uint64_t ack_bytes = 0;
  /// The log holds a kill or resume marker.
  bool recovery = false;
  /// Striped connections: each rail's chunks in trace order.
  std::vector<std::vector<RailChunk>> rails;
};

/// Tallies one posted or arrived data chunk.
void NoteChunk(SideTally& t, const TraceEvent& ev, bool indirect,
               std::uint32_t rails) {
  if (indirect) {
    t.indirect_bytes += ev.len;
  } else {
    t.direct_bytes += ev.len;
    ++t.direct_count;
  }
  if (rails > 1 && ev.msg_phase < rails) {
    t.rails[ev.msg_phase].push_back({ev.msg_seq, ev.len, indirect});
  }
}

/// Striping rules for one chunk (msg_seq = stripe, msg_phase = rail):
/// stripes follow each other densely, and every chunk names a real rail.
/// The rail-bound finding goes to `rail_bound`, kept only if the log never
/// resumed — failover shrinks the rail count mid-trace.
void CheckStripe(InvariantReport& report, std::vector<std::string>& rail_bound,
                 const TraceEvent& ev, std::uint32_t rails,
                 std::uint64_t& next_stripe, const char* gap,
                 const char* where) {
  if (ev.msg_seq != next_stripe) {
    Violation(report, ev,
              gap + std::to_string(ev.msg_seq) + ", expected " +
                  std::to_string(next_stripe));
  }
  next_stripe = ev.msg_seq + 1;
  if (ev.msg_phase >= rails) {
    rail_bound.push_back(At(ev, std::string("chunk ") + where + " on rail " +
                                    std::to_string(ev.msg_phase) + " of a " +
                                    std::to_string(rails) +
                                    "-rail connection"));
  }
}

/// Every rule for the sender half of a stream connection, in one walk:
///   - phase and sequence monotonicity, the foundation of every proof;
///   - Lemma 1: ADVERTs always carry a direct phase number;
///   - Lemma 3: a direct sender phase implies the most recent transfer
///     was direct, and each transfer kind is posted only in its phase;
///   - Lemma 4 / Theorem 1: an ADVERT accepted in a direct phase carries
///     exactly that phase; one ending an indirect phase carries the exact
///     sequence number; none carries a phase below the sender's (Fig. 8);
///   - posted-byte continuity, coalescing conservation and, on striped
///     connections, dense stripe numbering;
///   - kResumeTx: posting re-bases at the delivered frontier, stripes
///     restart at zero, and the phase never rewinds.
SideTally SenderPass(const std::vector<TraceEvent>& events,
                     const InvariantCheckOptions& opts,
                     InvariantReport& report) {
  SideTally t;
  if (opts.rails > 1) t.rails.resize(opts.rails);
  std::vector<std::string> rail_bound;
  std::uint64_t last_phase = 0;
  std::uint64_t last_seq = 0;
  bool sent_anything = false;
  bool last_transfer_indirect = false;
  std::uint64_t cum = 0;             // bytes posted so far (direct + indirect)
  std::uint64_t next_stripe = 0;     // expected next delivery sequence
  std::uint64_t staged_bytes = 0;    // staged since the last coalesce flush
  std::uint64_t staged_members = 0;  // sends staged since the last flush
  for (const auto& ev : events) {
    if (IsRecoveryMarker(ev.type)) t.recovery = true;
    if (ev.type == TraceEventType::kResumeTx) {
      // The sender re-based on its peer's delivered frontier: posting
      // restarts from the marker's seq (the unacknowledged suffix is
      // retransmitted from there), so the monotonicity baseline restarts
      // too, and stripe numbering restarts at zero on the surviving rails.
      // Phase never rewinds, so its baseline carries forward.
      if (ev.phase < last_phase) {
        Violation(report, ev, "sender phase went backwards at resume");
      }
      last_phase = ev.phase;
      last_seq = ev.seq;
      last_transfer_indirect = false;
      cum = ev.seq;
      next_stripe = 0;
      continue;
    }
    if (ev.phase < last_phase) {
      Violation(report, ev, "sender phase went backwards");
    }
    if (ev.seq < last_seq) {
      Violation(report, ev, "sender sequence went backwards");
    }
    last_phase = ev.phase;
    last_seq = ev.seq;

    switch (ev.type) {
      case TraceEventType::kAdvertReceived:
      case TraceEventType::kAdvertAccepted:
      case TraceEventType::kAdvertDiscarded:
        if (!PhaseIsDirect(ev.msg_phase)) {
          Violation(report, ev, "Lemma 1: ADVERT with indirect phase");
        }
        if (ev.type != TraceEventType::kAdvertAccepted) break;
        // Acceptance events record the sender state *before* the phase is
        // advanced.
        if (PhaseIsDirect(ev.phase) && ev.msg_phase != ev.phase) {
          Violation(report, ev,
                    "Lemma 4: accepted ADVERT phase differs from direct "
                    "sender phase");
        }
        if (PhaseIsIndirect(ev.phase) && ev.msg_seq != ev.seq) {
          Violation(report, ev,
                    "Theorem 1: ADVERT ending an indirect phase must "
                    "carry the exact sequence number");
        }
        if (ev.msg_phase < ev.phase) {
          Violation(report, ev,
                    "stale ADVERT accepted: message phase " +
                        std::to_string(ev.msg_phase) +
                        " below sender phase " + std::to_string(ev.phase));
        }
        // The next transfer of the new direct phase posts immediately;
        // Lemma 3's "most recent transfer" bookkeeping rolls forward.
        last_transfer_indirect = false;
        break;
      case TraceEventType::kDirectPosted:
      case TraceEventType::kIndirectPosted: {
        const bool indirect = ev.type == TraceEventType::kIndirectPosted;
        if (!indirect && !PhaseIsDirect(ev.phase)) {
          Violation(report, ev, "direct transfer posted in indirect phase");
        }
        if (indirect && !PhaseIsIndirect(ev.phase)) {
          Violation(report, ev, "indirect transfer posted in direct phase");
        }
        sent_anything = true;
        last_transfer_indirect = indirect;
        // Posting events record S_s *before* it advances, so a gap-free
        // byte stream shows ev.seq == cumulative posted bytes.
        if (ev.len == 0) {
          Violation(report, ev, "zero-length transfer posted");
        }
        if (ev.seq != cum) {
          Violation(report, ev,
                    "posted byte sequence not contiguous: event at seq " +
                        std::to_string(ev.seq) + ", expected " +
                        std::to_string(cum));
        }
        cum += ev.len;
        if (opts.rails > 1) {
          CheckStripe(report, rail_bound, ev, opts.rails, next_stripe,
                      "stripe sequence gap at posting: got ", "posted");
        }
        NoteChunk(t, ev, indirect, opts.rails);
        break;
      }
      case TraceEventType::kSendStaged:
        // Coalescing conservation, first half: every staged byte is
        // accounted until the flush that emits it.
        if (ev.len == 0) {
          Violation(report, ev, "zero-length send staged for coalescing");
        }
        staged_bytes += ev.len;
        ++staged_members;
        break;
      case TraceEventType::kCoalesceFlushed:
        // Second half: a flush emits exactly the bytes (and the member
        // count) staged since the previous flush — the merged WWI neither
        // drops nor invents stream bytes.
        if (ev.len == 0) {
          Violation(report, ev, "coalesce flush with no staged bytes");
        }
        if (ev.len != staged_bytes) {
          Violation(report, ev,
                    "coalesce flush length " + std::to_string(ev.len) +
                        " disagrees with the " + std::to_string(staged_bytes) +
                        " byte(s) staged since the last flush");
        }
        if (ev.msg_seq != staged_members) {
          Violation(report, ev,
                    "coalesce flush member count " +
                        std::to_string(ev.msg_seq) + " disagrees with the " +
                        std::to_string(staged_members) + " send(s) staged");
        }
        staged_bytes = 0;
        staged_members = 0;
        break;
      case TraceEventType::kAckReceived:
        t.ack_bytes += ev.len;
        break;
      default:
        break;
    }

    // Lemma 3, checked continuously.  (At the moment of a phase change to
    // direct no transfer of the new phase exists yet; the posting rules
    // above cover the change to indirect.)
    if (PhaseIsDirect(ev.phase) && sent_anything && last_transfer_indirect) {
      Violation(report, ev,
                "Lemma 3: direct phase but most recent transfer indirect");
    }
  }
  if (!t.recovery) {
    report.violations.insert(report.violations.end(), rail_bound.begin(),
                             rail_bound.end());
  }
  return t;
}

/// Every rule for the receiver half of a stream connection, in one walk:
///   - phase and sequence (S_r) monotonicity, straight through resumes;
///   - Lemma 1 at the source, and an ADVERT carries the receiver's phase;
///   - Lemma 2: all ADVERTs between two indirect arrivals carry one phase;
///   - ADVERT sequence numbers strictly increase (Theorem 1, b3/b4);
///   - each arrival kind lands only in its phase;
///   - received-byte continuity, and the intermediate buffer replayed from
///     indirect arrivals and copy-outs: within [0, capacity], and empty at
///     every ADVERT send, piggybacked ACK and direct arrival (Theorem 1);
///   - on striped connections, arrivals processed in exact stripe order.
SideTally ReceiverPass(const std::vector<TraceEvent>& events,
                       const InvariantCheckOptions& opts,
                       InvariantReport& report) {
  SideTally t;
  if (opts.rails > 1) t.rails.resize(opts.rails);
  std::vector<std::string> rail_bound;
  std::uint64_t last_phase = 0;
  std::uint64_t last_seq = 0;
  bool advert_seen_since_indirect = false;
  std::uint64_t advert_phase_since_indirect = 0;
  std::uint64_t last_advert_seq = 0;
  bool have_last_advert_seq = false;
  std::uint64_t cum = 0;          // bytes landed in user memory so far
  std::int64_t occupancy = 0;     // replayed intermediate-buffer bytes
  std::uint64_t next_stripe = 0;  // expected next processed stripe seq
  // Arrival/copy events record S_r *after* it advances, so a gap-free
  // stream shows ev.seq == cumulative + this event.
  auto received = [&](const TraceEvent& ev) {
    if (ev.len == 0) {
      Violation(report, ev, "zero-length arrival or copy");
    }
    if (ev.seq != cum + ev.len) {
      Violation(report, ev,
                "received byte sequence not contiguous: event ends at seq " +
                    std::to_string(ev.seq) + ", expected " +
                    std::to_string(cum + ev.len));
    }
    cum = ev.seq;
  };
  for (const auto& ev : events) {
    if (IsRecoveryMarker(ev.type)) t.recovery = true;
    if (ev.type == TraceEventType::kResumeRx) {
      // Post-resume ADVERTs restart at the delivered frontier, which is at
      // or below the pre-kill estimate (S'_r collapses back to S_r), so the
      // ADVERT-sequence baseline, Lemma 2's window and stripe reassembly
      // restart here.  The delivered sequence (S_r, and `cum` with it)
      // never rewinds: a resumed stream must stay gap-free and
      // duplicate-free in user memory.
      if (ev.phase < last_phase) {
        Violation(report, ev, "receiver phase went backwards at resume");
      }
      if (ev.seq < last_seq) {
        Violation(report, ev, "receiver sequence went backwards at resume");
      }
      last_phase = ev.phase;
      last_seq = ev.seq;
      have_last_advert_seq = false;
      advert_seen_since_indirect = false;
      next_stripe = 0;
      continue;
    }
    if (ev.phase < last_phase) {
      Violation(report, ev, "receiver phase went backwards");
    }
    if (ev.seq < last_seq) {
      Violation(report, ev, "receiver sequence went backwards");
    }
    last_phase = ev.phase;
    last_seq = ev.seq;

    switch (ev.type) {
      case TraceEventType::kAdvertSent:
        if (!PhaseIsDirect(ev.msg_phase)) {
          Violation(report, ev, "Lemma 1: ADVERT sent with indirect phase");
        }
        if (ev.msg_phase != ev.phase) {
          Violation(report, ev,
                    "ADVERT phase differs from receiver phase at send");
        }
        if (advert_seen_since_indirect &&
            ev.msg_phase != advert_phase_since_indirect) {
          Violation(report, ev,
                    "Lemma 2: ADVERT phase changed without an intervening "
                    "indirect transfer");
        }
        advert_seen_since_indirect = true;
        advert_phase_since_indirect = ev.msg_phase;
        if (have_last_advert_seq && ev.msg_seq <= last_advert_seq) {
          Violation(report, ev,
                    "ADVERT sequence numbers not strictly increasing");
        }
        last_advert_seq = ev.msg_seq;
        have_last_advert_seq = true;
        // Fig. 3 gate, observable form: no ADVERT leaves while buffered
        // bytes remain.
        if (occupancy != 0) {
          Violation(report, ev,
                    "ADVERT sent while the intermediate buffer holds " +
                        std::to_string(occupancy) +
                        " byte(s) — Fig. 3 gate violated");
        }
        break;
      case TraceEventType::kIndirectArrived:
        if (opts.rails > 1) {
          CheckStripe(report, rail_bound, ev, opts.rails, next_stripe,
                      "stripe reassembly out of order: processed stripe ",
                      "arrived");
        }
        if (!PhaseIsIndirect(ev.phase)) {
          Violation(report, ev,
                    "indirect arrival left receiver in a direct phase");
        }
        advert_seen_since_indirect = false;
        occupancy += static_cast<std::int64_t>(ev.len);
        if (opts.rx_ring_capacity != 0 &&
            occupancy > static_cast<std::int64_t>(opts.rx_ring_capacity)) {
          Violation(report, ev,
                    "intermediate buffer overflow: occupancy " +
                        std::to_string(occupancy) + " exceeds capacity " +
                        std::to_string(opts.rx_ring_capacity));
        }
        NoteChunk(t, ev, /*indirect=*/true, opts.rails);
        break;
      case TraceEventType::kDirectArrived:
        if (opts.rails > 1) {
          CheckStripe(report, rail_bound, ev, opts.rails, next_stripe,
                      "stripe reassembly out of order: processed stripe ",
                      "arrived");
        }
        // The safety property's observable: direct data is only accepted
        // in a direct phase, and only when nothing is buffered ahead of it
        // (Theorem 1).
        if (!PhaseIsDirect(ev.phase)) {
          Violation(report, ev, "direct arrival in an indirect phase");
        }
        if (occupancy != 0) {
          Violation(report, ev,
                    "direct transfer arrived while the intermediate buffer "
                    "holds " +
                        std::to_string(occupancy) +
                        " byte(s) — safety theorem violated");
        }
        NoteChunk(t, ev, /*indirect=*/false, opts.rails);
        received(ev);
        break;
      case TraceEventType::kCopyOut:
        occupancy -= static_cast<std::int64_t>(ev.len);
        if (occupancy < 0) {
          Violation(report, ev,
                    "copy-out of more bytes than the buffer holds "
                    "(occupancy " +
                        std::to_string(occupancy) + ")");
        }
        received(ev);
        break;
      case TraceEventType::kAckPiggybacked:
        // A piggybacked ACK rides an ADVERT, so it inherits the ADVERT's
        // gate: the buffer must be empty when it leaves.
        if (occupancy != 0) {
          Violation(report, ev,
                    "ACK piggybacked onto an ADVERT while the intermediate "
                    "buffer holds " +
                        std::to_string(occupancy) + " byte(s)");
        }
        t.ack_bytes += ev.len;
        break;
      case TraceEventType::kAckSent:
        t.ack_bytes += ev.len;
        break;
      default:
        break;
    }
  }
  if (!t.recovery) {
    report.violations.insert(report.violations.end(), rail_bound.begin(),
                             rail_bound.end());
  }
  return t;
}

// ---------------------------------------------------------------------------
// SOCK_SEQPACKET rules (§II-C): no phases, no indirect path, and ADVERT
// counters must arrive gap-free in order (RC is reliable and in-order).
// ---------------------------------------------------------------------------

bool IsReceiverSideType(TraceEventType type) {
  switch (type) {
    case TraceEventType::kAdvertSent:
    case TraceEventType::kDirectArrived:
    case TraceEventType::kIndirectArrived:
    case TraceEventType::kCopyOut:
    case TraceEventType::kAckSent:
    case TraceEventType::kReceiverPhaseChanged:
      return true;
    default:
      return false;
  }
}

SideTally SeqPacketPass(const std::vector<TraceEvent>& events,
                        bool receiver_side, InvariantReport& report) {
  SideTally t;
  std::uint64_t cum = 0;
  std::uint64_t last_advert_counter = 0;
  for (const auto& ev : events) {
    if (ev.phase != 0) {
      Violation(report, ev, "SEQPACKET event carries a nonzero phase");
    }
    if (IsReceiverSideType(ev.type) != receiver_side) {
      Violation(report, ev, "event from the wrong connection half");
    }
    switch (ev.type) {
      case TraceEventType::kIndirectArrived:
      case TraceEventType::kIndirectPosted:
      case TraceEventType::kCopyOut:
        Violation(report, ev,
                  "stream-only event in a SEQPACKET trace — message mode "
                  "has no indirect path");
        break;
      case TraceEventType::kAdvertSent:
      case TraceEventType::kAdvertReceived:
        // Counters start at 1 and advance by exactly one: RC delivery is
        // reliable and in-order, so any gap or repeat is a protocol bug.
        if (ev.msg_seq != last_advert_counter + 1) {
          Violation(report, ev,
                    "ADVERT counter gap: got " + std::to_string(ev.msg_seq) +
                        ", expected " +
                        std::to_string(last_advert_counter + 1) +
                        " — lost, duplicated, or reordered ADVERT");
        }
        last_advert_counter = ev.msg_seq;
        ++t.adverts;
        break;
      case TraceEventType::kDirectPosted:
        if (ev.seq != cum) {
          Violation(report, ev,
                    "posted byte sequence not contiguous: event at seq " +
                        std::to_string(ev.seq) + ", expected " +
                        std::to_string(cum));
        }
        cum += ev.len;
        NoteChunk(t, ev, /*indirect=*/false, /*rails=*/1);
        break;
      case TraceEventType::kDirectArrived:
        if (ev.seq != cum + ev.len) {
          Violation(report, ev,
                    "received byte sequence not contiguous: event ends at "
                    "seq " +
                        std::to_string(ev.seq) + ", expected " +
                        std::to_string(cum + ev.len));
        }
        cum = ev.seq;
        NoteChunk(t, ev, /*indirect=*/false, /*rails=*/1);
        break;
      default:
        break;
    }
  }
  return t;
}

/// Byte conservation by kind across one stream direction.
void CheckByteConservation(InvariantReport& report, const char* kind,
                           std::uint64_t posted, std::uint64_t arrived) {
  if (posted != arrived) {
    report.violations.push_back(std::string(kind) +
                                " byte conservation failed: posted " +
                                std::to_string(posted) + ", arrived " +
                                std::to_string(arrived));
  }
}

}  // namespace

InvariantReport CheckStreamSenderTrace(const TraceLog& log,
                                       const InvariantCheckOptions& opts) {
  InvariantReport report;
  if (AdmitLog(log, opts, "sender", report)) {
    SenderPass(log.events(), opts, report);
  }
  return report;
}

InvariantReport CheckStreamReceiverTrace(const TraceLog& log,
                                         const InvariantCheckOptions& opts) {
  InvariantReport report;
  if (AdmitLog(log, opts, "receiver", report)) {
    ReceiverPass(log.events(), opts, report);
  }
  return report;
}

InvariantReport CheckStreamPair(const TraceLog& sender_log,
                                const TraceLog& receiver_log,
                                const InvariantCheckOptions& opts) {
  InvariantReport report;
  bool sender_ok = AdmitLog(sender_log, opts, "sender", report);
  bool receiver_ok = AdmitLog(receiver_log, opts, "receiver", report);
  if (!sender_ok || !receiver_ok) return report;
  const SideTally tx = SenderPass(sender_log.events(), opts, report);
  const SideTally rx = ReceiverPass(receiver_log.events(), opts, report);

  // Across a kill/resume the cross-log conservation rules no longer hold
  // as stated: chunks in flight at the kill were posted but never arrive,
  // their retransmission may ride the other kind and is posted twice (so
  // per-rail arrivals are not a prefix of per-rail posts), failover
  // renumbers rails, and ACKs in flight at the kill are lost while the
  // resume handshake restores the sender's ring view without a
  // kAckReceived event.  The per-side rules above — including
  // delivered-byte continuity — still ran; skip only the pairwise ones,
  // loudly.
  if (tx.recovery || rx.recovery) {
    report.warnings.push_back(
        "kill/resume markers present: rail and ACK conservation "
        "cross-checks skipped (delivered-byte equivalence is proven by the "
        "recovery harness's payload fingerprints instead)");
    return report;
  }

  // Conservation: bytes posted by kind equal bytes arriving by kind.
  CheckByteConservation(report, "direct", tx.direct_bytes, rx.direct_bytes);
  CheckByteConservation(report, "indirect", tx.indirect_bytes,
                        rx.indirect_bytes);

  // Per-rail conservation: the chunks that arrived on a rail are exactly a
  // prefix of the chunks posted on it, in order, with matching length and
  // kind.  (A prefix, not equality: chunks may still be in flight when a
  // trace ends.)
  for (std::size_t rail = 0; rail < tx.rails.size(); ++rail) {
    const std::vector<RailChunk>& posted = tx.rails[rail];
    const std::vector<RailChunk>& arrived = rx.rails[rail];
    if (arrived.size() > posted.size()) {
      report.violations.push_back(
          "rail " + std::to_string(rail) + " delivered " +
          std::to_string(arrived.size()) + " chunk(s) but only " +
          std::to_string(posted.size()) + " were posted on it");
      continue;
    }
    for (std::size_t i = 0; i < arrived.size(); ++i) {
      const RailChunk& p = posted[i];
      const RailChunk& r = arrived[i];
      if (p.stripe != r.stripe || p.len != r.len ||
          p.indirect != r.indirect) {
        report.violations.push_back(
            "rail " + std::to_string(rail) + " chunk " + std::to_string(i) +
            " mismatch: posted (stripe " + std::to_string(p.stripe) + ", " +
            std::to_string(p.len) + " bytes, " +
            (p.indirect ? "indirect" : "direct") + "), arrived (stripe " +
            std::to_string(r.stripe) + ", " + std::to_string(r.len) +
            " bytes, " + (r.indirect ? "indirect" : "direct") + ")");
        break;
      }
    }
  }

  // ACK conservation: the sender can never learn of more freed buffer
  // space than the receiver reported.  (Equality need not hold: ACKs may
  // still be in flight when a trace ends.)
  if (tx.ack_bytes > rx.ack_bytes) {
    report.violations.push_back(
        "ACK conservation failed: sender released " +
        std::to_string(tx.ack_bytes) +
        " byte(s) of buffer space but the receiver only reported " +
        std::to_string(rx.ack_bytes));
  }
  return report;
}

InvariantReport CheckSeqPacketSenderTrace(const TraceLog& log,
                                          const InvariantCheckOptions& opts) {
  InvariantReport report;
  if (AdmitLog(log, opts, "sender", report)) {
    SeqPacketPass(log.events(), /*receiver_side=*/false, report);
  }
  return report;
}

InvariantReport CheckSeqPacketReceiverTrace(
    const TraceLog& log, const InvariantCheckOptions& opts) {
  InvariantReport report;
  if (AdmitLog(log, opts, "receiver", report)) {
    SeqPacketPass(log.events(), /*receiver_side=*/true, report);
  }
  return report;
}

InvariantReport CheckSeqPacketPair(const TraceLog& sender_log,
                                   const TraceLog& receiver_log,
                                   const InvariantCheckOptions& opts) {
  InvariantReport report;
  bool sender_ok = AdmitLog(sender_log, opts, "sender", report);
  bool receiver_ok = AdmitLog(receiver_log, opts, "receiver", report);
  if (!sender_ok || !receiver_ok) return report;
  const SideTally tx =
      SeqPacketPass(sender_log.events(), /*receiver_side=*/false, report);
  const SideTally rx =
      SeqPacketPass(receiver_log.events(), /*receiver_side=*/true, report);

  // Conservation across the wire: every posted message arrived, whole.
  if (tx.direct_count != rx.direct_count) {
    report.violations.push_back(
        "SEQPACKET message conservation failed: posted " +
        std::to_string(tx.direct_count) + " message(s), delivered " +
        std::to_string(rx.direct_count));
  }
  if (tx.direct_bytes != rx.direct_bytes) {
    report.violations.push_back(
        "SEQPACKET byte conservation failed: posted " +
        std::to_string(tx.direct_bytes) + " byte(s), delivered " +
        std::to_string(rx.direct_bytes));
  }
  if (tx.adverts > rx.adverts) {
    report.violations.push_back(
        "SEQPACKET ADVERT conservation failed: sender consumed " +
        std::to_string(tx.adverts) + " ADVERT(s), receiver sent only " +
        std::to_string(rx.adverts));
  }
  return report;
}

namespace {

/// Hot-path batching conservation for one socket's send rails, audited at
/// quiescence from verbs-layer ground truth (QueuePairStats):
///   - gather byte conservation: the summed SGE lengths of every posted
///     send WR equal the wire payload those WRs carried — a gather list
///     never sends more or fewer bytes than its slices name;
///   - doorbell accounting: WRs posted through batched doorbells are a
///     subset of all posted sends, and every doorbell ring covered at
///     least one WR (PostSendBatch refuses empty batches);
///   - flush discipline: no WR may still be parked behind an un-rung
///     doorbell once the connection is quiescent — a batched post that
///     never flushed is a send that silently never happened.
/// Holds identically with batching off (all batch counters are zero).
void CheckBatchingConservation(InvariantReport& report, const char* label,
                               const Socket& s) {
  // Mux slots post through the group owner's shared channels and are
  // audited by CheckMuxGroupPair; rails here are classic per-socket QPs.
  if (s.Muxed()) return;
  for (std::size_t rail = 0; rail < s.effective_rails(); ++rail) {
    const ControlChannel& ch =
        rail == 0 ? s.channel() : s.data_rail(rail - 1);
    if (!ch.HasQueuePair()) continue;  // never connected: nothing posted
    ++report.events_checked;
    const verbs::QueuePairStats& qp = ch.qp_stats();
    if (qp.sge_bytes_posted != qp.payload_bytes_sent) {
      std::ostringstream oss;
      oss << label << " rail " << rail
          << ": gather byte conservation broken — posted SGE lists sum to "
          << qp.sge_bytes_posted << " byte(s) but the WRs carried "
          << qp.payload_bytes_sent
          << " payload byte(s); a scatter-gather WR lost or invented bytes";
      report.violations.push_back(oss.str());
    }
    if (qp.batched_wrs > qp.sends_posted) {
      std::ostringstream oss;
      oss << label << " rail " << rail
          << ": doorbell accounting broken — " << qp.batched_wrs
          << " WR(s) attributed to batched doorbells but only "
          << qp.sends_posted
          << " send(s) were ever posted; a WR was double-counted";
      report.violations.push_back(oss.str());
    }
    if (qp.doorbells > qp.batched_wrs) {
      std::ostringstream oss;
      oss << label << " rail " << rail << ": " << qp.doorbells
          << " doorbell ring(s) covered only " << qp.batched_wrs
          << " WR(s); an empty batch rang the doorbell";
      report.violations.push_back(oss.str());
    }
    if (ch.PendingBatchedWrs() != 0) {
      std::ostringstream oss;
      oss << label << " rail " << rail << ": " << ch.PendingBatchedWrs()
          << " WR(s) still parked behind an un-rung doorbell at "
             "quiescence — a pump pass exited without flushing its batch";
      report.violations.push_back(oss.str());
    }
  }
}

}  // namespace

InvariantReport CheckConnection(Socket& a, Socket& b) {
  InvariantReport report;
  if (a.type() == SocketType::kSeqPacket) {
    report.Merge(CheckSeqPacketPair(a.tx_trace(), b.rx_trace()));
    report.Merge(CheckSeqPacketPair(b.tx_trace(), a.rx_trace()));
    return report;
  }
  InvariantCheckOptions a_to_b;
  if (b.stream_rx() != nullptr) {
    a_to_b.rx_ring_capacity = b.stream_rx()->ring_capacity();
  }
  a_to_b.rails = static_cast<std::uint32_t>(a.effective_rails());
  InvariantCheckOptions b_to_a;
  if (a.stream_rx() != nullptr) {
    b_to_a.rx_ring_capacity = a.stream_rx()->ring_capacity();
  }
  b_to_a.rails = static_cast<std::uint32_t>(b.effective_rails());
  report.Merge(CheckStreamPair(a.tx_trace(), b.rx_trace(), a_to_b));
  report.Merge(CheckStreamPair(b.tx_trace(), a.rx_trace(), b_to_a));
  CheckBatchingConservation(report, "a->b", a);
  CheckBatchingConservation(report, "b->a", b);
  return report;
}

namespace {

/// One direction of rule (a): everything `tx` posted is accounted at `rx`.
void CheckMuxConservation(InvariantReport& report, const char* label,
                          const MuxGroupStats& tx, const MuxGroupStats& rx) {
  ++report.events_checked;
  std::uint64_t accounted =
      rx.data_delivered + rx.stale_data_drops + rx.orphan_drops;
  if (tx.data_posted != accounted) {
    std::ostringstream oss;
    oss << label << ": mux data conservation broken — " << tx.data_posted
        << " WWI(s) posted but peer accounts " << accounted << " ("
        << rx.data_delivered << " delivered + " << rx.stale_data_drops
        << " epoch-stale + " << rx.orphan_drops
        << " orphaned); a message vanished inside the mux layer (or the "
           "groups were not quiescent when checked)";
    report.violations.push_back(oss.str());
  }
}

/// One direction of rule (c) for one slot: `tx`'s view of its peer slot
/// `rx`'s credits, plus what `rx` still owes, equals `rx`'s pool.
void CheckMuxSlotCredits(InvariantReport& report, const char* label,
                         std::size_t slot, const ControlChannel& tx,
                         const ControlChannel& rx) {
  ++report.events_checked;
  if (tx.dead() || rx.dead()) return;  // a dead slot's window is void
  std::uint32_t seen = tx.remote_credits() + rx.owed_credits();
  if (seen != rx.credit_pool_size()) {
    std::ostringstream oss;
    oss << label << " slot " << slot << ": credit conservation broken — "
        << "sender sees " << tx.remote_credits() << " credit(s), receiver "
        << "owes " << rx.owed_credits() << ", pool is "
        << rx.credit_pool_size()
        << "; the mux layer minted or leaked shared-QP credits";
    report.violations.push_back(oss.str());
  }
}

/// Rules (b) for one stream pair, one direction.
void CheckMuxStreamPair(InvariantReport& report, const char* label,
                        std::uint32_t id, const MuxStream& tx,
                        const MuxStream& rx) {
  ++report.events_checked;
  if (tx.outstanding() != 0) {
    std::ostringstream oss;
    oss << label << " stream " << id << ": " << tx.outstanding()
        << " data WWI(s) still outstanding at quiescence — a send "
           "completion never came back through the slot FIFO";
    report.violations.push_back(oss.str());
  }
  if (tx.dead() || rx.dead() || tx.epoch() != rx.epoch()) {
    // Killed or mid-revive: continuity is re-established by the resume
    // machinery, not asserted here.
    return;
  }
  if (tx.tx_seq() != rx.rx_expect()) {
    std::ostringstream oss;
    oss << label << " stream " << id << ": per-stream continuity broken — "
        << "sender sequence is at " << tx.tx_seq()
        << " but receiver expects " << rx.rx_expect()
        << "; the shared QP reordered or dropped within a stream";
    report.violations.push_back(oss.str());
  }
}

}  // namespace

InvariantReport CheckMuxGroupPair(const MuxGroup& a, const MuxGroup& b) {
  InvariantReport report;
  if (a.peer() != &b || b.peer() != &a) {
    report.violations.push_back(
        "mux groups are not connected peers (MuxGroup::Connect)");
    return report;
  }
  if (a.width() != b.width()) {
    report.violations.push_back("mux group widths differ");
    return report;
  }
  CheckMuxConservation(report, "a->b", a.stats(), b.stats());
  CheckMuxConservation(report, "b->a", b.stats(), a.stats());
  for (std::size_t slot = 0; slot < a.width(); ++slot) {
    CheckMuxSlotCredits(report, "a->b", slot, a.slot(slot), b.slot(slot));
    CheckMuxSlotCredits(report, "b->a", slot, b.slot(slot), a.slot(slot));
  }
  // Rule (b) runs over stream pairs attached on both sides; a one-sided
  // stream is legal mid-teardown but its counters prove nothing.
  for (std::uint32_t id : a.StreamIds()) {
    const MuxStream* sa = a.FindStream(id);
    const MuxStream* sb = b.FindStream(id);
    if (sa == nullptr || sb == nullptr) continue;
    CheckMuxStreamPair(report, "a->b", id, *sa, *sb);
    CheckMuxStreamPair(report, "b->a", id, *sb, *sa);
  }
  return report;
}

InvariantReport CheckSpanConservation(const spans::SpanCollector& collector,
                                      SimDuration slack_ps) {
  InvariantReport report;
  // The eight boundary timestamps, in chunk order.  The seven stages are
  // exactly the adjacent differences, so when every boundary is stamped
  // and ordered the stage sum telescopes to t_deliver − t_submit; any
  // residue (beyond the granted slack) convicts the instrumentation.
  struct Boundary {
    const char* name;
    SimTime spans::ChunkRecord::* field;
  };
  static constexpr Boundary kBoundaries[] = {
      {"submit", &spans::ChunkRecord::t_submit},
      {"flush", &spans::ChunkRecord::t_flush},
      {"post", &spans::ChunkRecord::t_post},
      {"arrive", &spans::ChunkRecord::t_arrive},
      {"process", &spans::ChunkRecord::t_process},
      {"ring_end", &spans::ChunkRecord::t_ring_end},
      {"copied", &spans::ChunkRecord::t_copied},
      {"deliver", &spans::ChunkRecord::t_deliver},
  };
  std::uint64_t undelivered = 0;
  for (const spans::ChunkRecord& c : collector.chunks()) {
    if (!c.delivered()) {
      // Legal for chunks still in flight when the run stopped; counted so
      // a harness that expects full delivery can notice.
      ++undelivered;
      continue;
    }
    ++report.events_checked;
    bool complete = true;
    for (const Boundary& b : kBoundaries) {
      if (c.*(b.field) == spans::kNoTime) {
        std::ostringstream oss;
        oss << "chunk " << c.id << ": delivered but boundary '" << b.name
            << "' was never stamped";
        report.violations.push_back(oss.str());
        complete = false;
      }
    }
    if (!complete) continue;
    bool ordered = true;
    for (std::size_t i = 1; i < std::size(kBoundaries); ++i) {
      SimTime prev = c.*(kBoundaries[i - 1].field);
      SimTime cur = c.*(kBoundaries[i].field);
      if (cur < prev) {
        std::ostringstream oss;
        oss << "chunk " << c.id << ": boundary '" << kBoundaries[i].name
            << "' (" << cur << "ps) precedes '" << kBoundaries[i - 1].name
            << "' (" << prev << "ps)";
        report.violations.push_back(oss.str());
        ordered = false;
      }
    }
    if (!ordered) continue;
    SimDuration sum = 0;
    for (std::size_t s = 0; s < spans::kStageCount; ++s) {
      sum += c.StageDuration(static_cast<spans::Stage>(s));
    }
    const SimDuration e2e = c.EndToEnd();
    const SimDuration residue = sum > e2e ? sum - e2e : e2e - sum;
    if (residue > slack_ps) {
      std::ostringstream oss;
      oss << "chunk " << c.id << ": stage sum " << sum
          << "ps != end-to-end " << e2e << "ps (residue " << residue
          << "ps exceeds slack " << slack_ps << "ps)";
      report.violations.push_back(oss.str());
    }
  }
  if (undelivered > 0) {
    std::ostringstream oss;
    oss << "span conservation: " << undelivered << " sampled chunk(s) were "
        << "never delivered — conservation checked on the delivered "
        << collector.chunks().size() - undelivered << " only";
    report.warnings.push_back(oss.str());
  }
  return report;
}

InvariantReport CheckPoolConservation(
    const std::vector<const TraceLog*>& receiver_logs,
    const PoolCheckOptions& opts) {
  InvariantReport report;
  InvariantCheckOptions admit;
  admit.allow_truncated = opts.allow_truncated;

  // Ring deltas from every log, tagged for the cross-stream merge below.
  struct Delta {
    decltype(TraceEvent::time) time;
    std::int64_t bytes;  // +arrival / -copy-out
    const TraceEvent* ev;
  };
  std::vector<Delta> deltas;

  for (std::size_t i = 0; i < receiver_logs.size(); ++i) {
    const TraceLog* log = receiver_logs[i];
    std::string label = "pool receiver[" + std::to_string(i) + "]";
    if (log == nullptr) {
      report.violations.push_back(label + ": null trace log");
      continue;
    }
    if (!AdmitLog(*log, admit, label.c_str(), report)) continue;
    // Per-stream replay: conservation (never negative) and the lease
    // bound (a stream can never occupy more slab than it leased).
    std::int64_t occupancy = 0;
    bool over_lease = false;
    for (const auto& ev : log->events()) {
      switch (ev.type) {
        case TraceEventType::kIndirectArrived:
          occupancy += static_cast<std::int64_t>(ev.len);
          deltas.push_back({ev.time, static_cast<std::int64_t>(ev.len), &ev});
          if (opts.lease_bytes > 0 &&
              occupancy > static_cast<std::int64_t>(opts.lease_bytes)) {
            if (!over_lease) {
              Violation(report, ev,
                        label + ": ring occupancy " +
                            std::to_string(occupancy) +
                            " exceeds its lease of " +
                            std::to_string(opts.lease_bytes) + " byte(s)");
            }
            over_lease = true;
          }
          break;
        case TraceEventType::kCopyOut:
          occupancy -= static_cast<std::int64_t>(ev.len);
          deltas.push_back({ev.time, -static_cast<std::int64_t>(ev.len), &ev});
          if (occupancy < 0) {
            Violation(report, ev,
                      label + ": copied out " + std::to_string(ev.len) +
                          " byte(s) more than ever arrived (occupancy " +
                          std::to_string(occupancy) + ")");
          }
          if (opts.lease_bytes > 0 &&
              occupancy <= static_cast<std::int64_t>(opts.lease_bytes)) {
            over_lease = false;
          }
          break;
        default:
          break;
      }
    }
  }

  // Aggregate replay: merge every stream's deltas by time, draining
  // before filling at equal timestamps (the conservative tie-break — at
  // one instant the slab held at most the post-drain sum, so this order
  // cannot manufacture a false overshoot).  The summed occupancy staying
  // under the slab size is the O(pool) memory claim itself.
  if (opts.pool_capacity_bytes > 0) {
    std::stable_sort(deltas.begin(), deltas.end(),
                     [](const Delta& a, const Delta& b) {
                       if (a.time != b.time) return a.time < b.time;
                       return a.bytes < b.bytes;
                     });
    std::int64_t total = 0;
    bool over_pool = false;
    for (const auto& d : deltas) {
      total += d.bytes;
      if (total > static_cast<std::int64_t>(opts.pool_capacity_bytes)) {
        if (!over_pool) {
          Violation(report, *d.ev,
                    "aggregate pool occupancy " + std::to_string(total) +
                        " exceeds the shared slab of " +
                        std::to_string(opts.pool_capacity_bytes) +
                        " byte(s) across " +
                        std::to_string(receiver_logs.size()) + " stream(s)");
        }
        over_pool = true;
      } else {
        over_pool = false;
      }
    }
  }
  return report;
}

InvariantReport CheckRpcConservation(
    const std::vector<const rpc::RpcLedger*>& clients,
    const rpc::RpcServerCounters* server) {
  InvariantReport report;
  std::uint64_t issued = 0;
  std::uint64_t shed = 0;
  std::uint64_t answered = 0;
  std::uint64_t refused = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t stale = 0;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const rpc::RpcLedger& ledger = *clients[c];
    issued += ledger.issued();
    shed += ledger.shed_local;
    stale += ledger.stale_responses;
    std::uint64_t client_timed_out = 0;
    for (std::size_t i = 0; i < ledger.outcome.size(); ++i) {
      ++report.events_checked;
      const auto o = static_cast<rpc::Outcome>(ledger.outcome[i]);
      const std::uint8_t attempts = ledger.outcome_count[i];
      if (o == rpc::Outcome::kPending || attempts == 0) {
        report.violations.push_back(
            "rpc: client " + std::to_string(c) + " request " +
            std::to_string(i + 1) +
            " lost: no terminal outcome at quiescence");
        continue;
      }
      if (attempts != 1) {
        report.violations.push_back(
            "rpc: client " + std::to_string(c) + " request " +
            std::to_string(i + 1) + " resolved " + std::to_string(attempts) +
            " times (outcome must be exactly one of "
            "answered/timed-out/refused)");
      }
      switch (o) {
        case rpc::Outcome::kAnswered: ++answered; break;
        case rpc::Outcome::kRefused: ++refused; break;
        case rpc::Outcome::kTimedOut:
          ++timed_out;
          ++client_timed_out;
          break;
        case rpc::Outcome::kPending: break;
      }
    }
    if (ledger.cancelled > client_timed_out) {
      report.violations.push_back(
          "rpc: client " + std::to_string(c) + " records " +
          std::to_string(ledger.cancelled) + " cancellations but only " +
          std::to_string(client_timed_out) + " timed-out outcomes");
    }
  }
  if (shed > refused) {
    report.violations.push_back(
        "rpc: " + std::to_string(shed) + " locally shed request(s) exceed " +
        std::to_string(refused) + " refused outcome(s)");
  }
  if (server != nullptr) {
    const std::uint64_t on_wire = issued - (shed < issued ? shed : issued);
    if (server->requests_received != on_wire) {
      report.violations.push_back(
          "rpc: server received " + std::to_string(server->requests_received) +
          " request(s) but clients put " + std::to_string(on_wire) +
          " on the wire (" + std::to_string(issued) + " issued - " +
          std::to_string(shed) + " shed)");
    }
    const std::uint64_t refused_remote = refused - (shed < refused ? shed : refused);
    const std::uint64_t accounted = answered + refused_remote + stale;
    if (server->responses_sent != accounted) {
      report.violations.push_back(
          "rpc: server sent " + std::to_string(server->responses_sent) +
          " response(s) but clients account " + std::to_string(accounted) +
          " (" + std::to_string(answered) + " answered + " +
          std::to_string(refused_remote) + " refused + " +
          std::to_string(stale) + " stale)");
    }
    if (server->responses_sent != server->answered + server->refused) {
      report.violations.push_back(
          "rpc: server response split broken: " +
          std::to_string(server->responses_sent) + " sent != " +
          std::to_string(server->answered) + " answered + " +
          std::to_string(server->refused) + " refused");
    }
  }
  return report;
}

std::uint64_t TraceFingerprint(const TraceLog& log) {
  // FNV-1a over every recorded field, in order.  Traces carry no memory
  // addresses, so the hash is stable across processes and ASLR.
  Fnv1a h;
  h.Mix(log.events().size());
  h.Mix(log.dropped());
  for (const auto& ev : log.events()) {
    h.Mix(static_cast<std::uint64_t>(ev.time));
    h.Mix(static_cast<std::uint64_t>(ev.type));
    h.Mix(ev.seq);
    h.Mix(ev.phase);
    h.Mix(ev.len);
    h.Mix(ev.msg_seq);
    h.Mix(ev.msg_phase);
  }
  return h.value();
}

std::uint64_t ConnectionFingerprint(const Socket& a, const Socket& b) {
  Fnv1a h;
  h.Mix(TraceFingerprint(a.tx_trace()));
  h.Mix(TraceFingerprint(a.rx_trace()));
  h.Mix(TraceFingerprint(b.tx_trace()));
  h.Mix(TraceFingerprint(b.rx_trace()));
  return h.value();
}

}  // namespace exs
