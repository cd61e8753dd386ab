// SOCK_SEQPACKET: the message-oriented mode (§II-C of the paper).
//
// The protocol is deliberately simple and is the baseline the stream mode
// grew out of: every exs_recv() sends an ADVERT; every exs_send() waits for
// an ADVERT and pushes the whole message with a single WWI directly into
// the advertised user memory.  Message boundaries are preserved; a message
// larger than the advertised buffer is truncated — the data-loss hazard of
// porting stream programs to message transports that §I describes, and the
// behaviour the stream mode exists to fix.
#pragma once

#include <cstdint>

#include "common/fifo.hpp"
#include "exs/channel.hpp"
#include "exs/event_queue.hpp"
#include "exs/stream.hpp"
#include "exs/types.hpp"
#include "exs/wire.hpp"

namespace exs {

class SeqPacketTx {
 public:
  explicit SeqPacketTx(StreamContext ctx) : ctx_(std::move(ctx)) {}

  void Submit(std::uint64_t id, const void* buf, std::uint64_t len,
              std::uint32_t lkey);
  void OnAdvert(const wire::ControlMessage& msg);
  void OnCreditAvailable() { Pump(); }
  void OnWwiComplete(std::uint64_t wr_id);
  void RequestShutdown();
  bool ShutdownRequested() const { return shutdown_requested_; }

  bool Quiescent() const { return sends_.empty() && awaiting_ack_.empty(); }

 private:
  struct PendingSend {
    std::uint64_t id = 0;
    const std::uint8_t* base = nullptr;
    std::uint64_t len = 0;
    std::uint32_t lkey = 0;
  };
  struct Sent {
    std::uint64_t id = 0;
    std::uint64_t bytes = 0;
    bool truncated = false;
  };
  struct Advert {
    std::uint64_t addr = 0;
    std::uint32_t rkey = 0;
    std::uint64_t len = 0;
  };

  void Pump();
  void Trace(TraceEventType type, std::uint64_t len = 0,
             std::uint64_t msg_seq = 0) {
    // Message mode has no phases; events carry phase 0 (direct parity)
    // and the cumulative byte count as the sequence.
    if (ctx_.trace != nullptr && ctx_.trace->enabled()) {
      ctx_.trace->Record(
          TraceEvent{ctx_.scheduler->Now(), type, seq_, 0, len, msg_seq, 0});
    }
  }

  StreamContext ctx_;
  std::uint64_t seq_ = 0;  ///< cumulative bytes posted (trace bookkeeping)
  Fifo<PendingSend> sends_;
  Fifo<Advert> adverts_;
  Fifo<Sent> awaiting_ack_;  ///< posted WWIs, completion pending
  bool shutdown_requested_ = false;
  bool shutdown_sent_ = false;
};

class SeqPacketRx {
 public:
  explicit SeqPacketRx(StreamContext ctx) : ctx_(std::move(ctx)) {}

  void Submit(std::uint64_t id, void* buf, std::uint64_t len,
              std::uint32_t rkey);
  void OnData(bool indirect, std::uint64_t len);
  void OnCreditAvailable() { AdvertisePending(); }
  void OnShutdown();
  bool PeerClosed() const { return peer_closed_; }

  std::size_t PendingRecvs() const { return pending_.size(); }
  bool Quiescent() const { return pending_.empty(); }

 private:
  struct PendingRecv {
    std::uint64_t id = 0;
    std::uint8_t* base = nullptr;
    std::uint64_t len = 0;
    std::uint32_t rkey = 0;
    bool adverted = false;
  };

  void AdvertisePending();
  void Trace(TraceEventType type, std::uint64_t len = 0,
             std::uint64_t msg_seq = 0) {
    if (ctx_.trace != nullptr && ctx_.trace->enabled()) {
      ctx_.trace->Record(
          TraceEvent{ctx_.scheduler->Now(), type, seq_, 0, len, msg_seq, 0});
    }
  }

  StreamContext ctx_;
  std::uint64_t seq_ = 0;        ///< cumulative bytes received
  std::uint64_t advert_seq_ = 0; ///< monotone ADVERT counter, sent on the wire
  Fifo<PendingRecv> pending_;
  bool peer_closed_ = false;
};

}  // namespace exs
