#include "exs/trace.hpp"

#include <sstream>

namespace exs {

const char* ToString(TraceEventType type) {
  switch (type) {
    case TraceEventType::kAdvertReceived: return "advert-received";
    case TraceEventType::kAdvertAccepted: return "advert-accepted";
    case TraceEventType::kAdvertDiscarded: return "advert-discarded";
    case TraceEventType::kDirectPosted: return "direct-posted";
    case TraceEventType::kIndirectPosted: return "indirect-posted";
    case TraceEventType::kSenderPhaseChanged: return "sender-phase";
    case TraceEventType::kAckReceived: return "ack-received";
    case TraceEventType::kAdvertSent: return "advert-sent";
    case TraceEventType::kDirectArrived: return "direct-arrived";
    case TraceEventType::kIndirectArrived: return "indirect-arrived";
    case TraceEventType::kCopyOut: return "copy-out";
    case TraceEventType::kAckSent: return "ack-sent";
    case TraceEventType::kReceiverPhaseChanged: return "receiver-phase";
    case TraceEventType::kSendStaged: return "send-staged";
    case TraceEventType::kCoalesceFlushed: return "coalesce-flushed";
    case TraceEventType::kAckPiggybacked: return "ack-piggybacked";
    case TraceEventType::kZeroLengthSend: return "zero-length-send";
    case TraceEventType::kTransportKilled: return "transport-killed";
    case TraceEventType::kResumeTx: return "resume-tx";
    case TraceEventType::kResumeRx: return "resume-rx";
  }
  return "?";
}

const char* ToString(CoalesceFlushReason reason) {
  switch (reason) {
    case CoalesceFlushReason::kMaxBytes: return "max-bytes";
    case CoalesceFlushReason::kTimeout: return "timeout";
    case CoalesceFlushReason::kAdvert: return "advert";
    case CoalesceFlushReason::kPhaseChange: return "phase-change";
    case CoalesceFlushReason::kClose: return "close";
    case CoalesceFlushReason::kOrdering: return "ordering";
  }
  return "?";
}

std::string TraceLog::Format() const {
  std::ostringstream oss;
  for (const auto& ev : events_) {
    oss << ToMicroseconds(ev.time) << "us " << ToString(ev.type)
        << " seq=" << ev.seq << " phase=" << ev.phase;
    if (ev.len) oss << " len=" << ev.len;
    switch (ev.type) {
      case TraceEventType::kAdvertSent:
      case TraceEventType::kAdvertReceived:
      case TraceEventType::kAdvertAccepted:
      case TraceEventType::kAdvertDiscarded:
        oss << " advert(seq=" << ev.msg_seq << " phase=" << ev.msg_phase
            << ")";
        break;
      default:
        break;
    }
    oss << "\n";
  }
  return oss.str();
}

}  // namespace exs
