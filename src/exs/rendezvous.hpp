// Receiver-driven rendezvous: the RDMA READ alternative the paper
// deliberately did not use (§II-B).
//
// Protocol per direction of the byte stream:
//
//   sender:    exs_send() -> SRC-ADVERT { addr, rkey, len } and wait;
//   receiver:  match source advertisements against pending receives FIFO,
//              pull each span with RDMA READ straight into user memory,
//              and send READ-DONE once a source is fully consumed;
//   sender:    READ-DONE completes the exs_send (memory reusable).
//
// Like the dynamic protocol's direct path this is zero-copy, and like the
// indirect path the sender never stalls waiting for receive-side
// ADVERTs.  The price is wire crossings: data arrives only after
// SRC-ADVERT (half trip) plus a full READ round trip, and the sender's
// completion waits yet another crossing — which is exactly why a
// WAN-oriented stream library prefers sender-driven WRITEs.  The
// ext_rendezvous bench measures the trade on both fabrics.
#pragma once

#include <cstdint>

#include "common/fifo.hpp"
#include "exs/channel.hpp"
#include "exs/event_queue.hpp"
#include "exs/stream.hpp"
#include "exs/types.hpp"
#include "exs/wire.hpp"

namespace exs {

class RendezvousTx {
 public:
  explicit RendezvousTx(StreamContext ctx) : ctx_(std::move(ctx)) {}

  /// `rkey` names the registered region covering the source bytes — the
  /// peer reads them remotely.
  void Submit(std::uint64_t id, const void* buf, std::uint64_t len,
              std::uint32_t rkey);
  void OnReadDone(std::uint64_t bytes);  ///< READ-DONE control message
  void OnCreditAvailable() { Pump(); }
  void RequestShutdown();
  bool ShutdownRequested() const { return shutdown_requested_; }

  std::uint64_t sequence() const { return seq_; }
  bool Quiescent() const { return unadvertised_.empty() && awaiting_.empty(); }

 private:
  struct PendingSend {
    std::uint64_t id = 0;
    std::uint64_t addr = 0;
    std::uint64_t len = 0;
    std::uint64_t done = 0;  ///< bytes the peer has confirmed reading
    std::uint32_t rkey = 0;
  };

  void Pump();

  StreamContext ctx_;
  std::uint64_t seq_ = 0;
  Fifo<PendingSend> unadvertised_;
  Fifo<PendingSend> awaiting_;  ///< advertised, not fully READ-DONE
  bool shutdown_requested_ = false;
  bool shutdown_sent_ = false;
};

class RendezvousRx {
 public:
  explicit RendezvousRx(StreamContext ctx) : ctx_(std::move(ctx)) {}

  /// `lkey` covers the destination buffer — READ responses land there.
  void Submit(std::uint64_t id, void* buf, std::uint64_t len,
              std::uint32_t lkey, bool waitall);
  void OnSrcAdvert(const wire::ControlMessage& msg);
  void OnReadComplete(std::uint64_t wr_id, std::uint64_t bytes);
  void OnCreditAvailable() {
    FlushDones();
    PumpReads();
  }
  void OnShutdown();
  bool PeerClosed() const { return peer_closed_; }

  std::uint64_t sequence() const { return seq_; }
  bool Quiescent() const {
    return pending_.empty() && sources_.empty() && outstanding_reads_ == 0;
  }

 private:
  struct PendingRecv {
    std::uint64_t id = 0;
    std::uint64_t addr = 0;
    std::uint64_t len = 0;
    std::uint64_t filled = 0;    ///< bytes landed (reads completed)
    std::uint64_t claimed = 0;   ///< bytes covered by issued reads
    std::uint32_t lkey = 0;
    bool waitall = false;
  };
  struct Source {
    std::uint64_t addr = 0;
    std::uint64_t len = 0;
    std::uint64_t claimed = 0;   ///< bytes covered by issued reads
    std::uint64_t completed = 0; ///< bytes whose reads finished
    std::uint32_t rkey = 0;
  };

  /// Issue READs covering min(head receive space, head source remainder).
  void PumpReads();
  /// Send queued READ-DONE confirmations as credits allow.
  void FlushDones();
  void MaybeFinishEof();

  StreamContext ctx_;
  std::uint64_t seq_ = 0;
  std::uint64_t adverts_seen_seq_ = 0;  ///< ordering check on SRC-ADVERTs
  Fifo<PendingRecv> pending_;
  Fifo<Source> sources_;
  Fifo<std::uint64_t> done_queue_;
  std::uint32_t outstanding_reads_ = 0;
  std::uint64_t next_read_id_ = 1;
  bool peer_closed_ = false;
  bool eof_delivered_ = false;
};

}  // namespace exs
