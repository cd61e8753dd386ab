// Public vocabulary of the EXS library: socket types, protocol modes,
// per-request flags, completion events, and statistics.
//
// Naming follows the paper: a connection's outgoing byte stream has a
// "sender" half (phase P_s, sequence S_s, remote-buffer view b_s, ADVERT
// queue q_A) and its incoming stream a "receiver" half (phase P_r,
// sequences S_r / S'_r, intermediate buffer b_r).  Both halves exist on
// both sockets — connections are full duplex.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"

namespace exs {

enum class SocketType {
  kStream,     ///< SOCK_STREAM: byte-stream semantics (the paper's subject)
  kSeqPacket,  ///< SOCK_SEQPACKET: message semantics (§II-C)
};

/// Transfer-selection policy.  The paper's evaluation compares the dynamic
/// algorithm against two forced baselines (§IV-B).
enum class ProtocolMode {
  kDynamic,       ///< switch between direct and indirect per conditions
  kDirectOnly,    ///< always wait for an ADVERT; never touch the buffer
  kIndirectOnly,  ///< receiver sends no ADVERTs; everything is buffered
  /// Receiver-driven alternative the paper chose *not* to use ("A similar
  /// RDMA READ operation works in the opposite direction, but is not used
  /// in our solution", §II-B): the sender exposes its source memory and
  /// the receiver pulls with RDMA READ.  Zero-copy and never waits for
  /// receive-side ADVERTs — but every transfer costs an extra wire
  /// crossing, which is ruinous over distance.  Implemented as a
  /// comparison engine (exs/rendezvous.hpp); the ext_rendezvous bench
  /// quantifies the trade.
  kReadRendezvous,
};

const char* ToString(ProtocolMode mode);

/// How the sender spreads chunks across the data rails when
/// StreamOptions::rails > 1.
enum class RailScheduler : std::uint8_t {
  kRoundRobin,           ///< cycle through sendable rails in index order
  kShortestOutstanding,  ///< rail with the fewest un-completed bytes
};

const char* ToString(RailScheduler scheduler);

struct StreamOptions {
  ProtocolMode mode = ProtocolMode::kDynamic;

  /// Capacity of the hidden circular receive buffer (per direction).
  std::uint64_t intermediate_buffer_bytes = 8 * kMiB;

  /// Send an ACK once this many bytes have been copied out of the buffer
  /// since the last ACK.  0 means intermediate_buffer_bytes / 8.  The
  /// buffer becoming empty always triggers an ACK.
  std::uint64_t ack_threshold_bytes = 0;

  /// Receive work requests pre-posted per side at connection setup — the
  /// credit pool for SENDs and RDMA-WRITE-WITH-IMMs (§II-B).
  std::uint32_t credits = 128;

  /// Upper bound on a single WWI chunk; 0 means unbounded.  Useful in
  /// tests to force sends to split.
  std::uint64_t max_wwi_chunk = 0;

  /// Data queue pairs ("rails") the connection stripes its chunk stream
  /// across.  1 (the default) is the classic single-QP protocol and is
  /// wire-byte-identical to it.  With N > 1, rail 0 carries control plus
  /// data and rails 1..N-1 carry data only; every chunk additionally
  /// carries a per-stream delivery sequence number so the receiver
  /// reassembles the exact submission order regardless of which rail each
  /// chunk rode (docs/PROTOCOL.md §10).  The effective count is the
  /// minimum of both endpoints' settings.  Ignored (clamped to 1) for
  /// SOCK_SEQPACKET and read-rendezvous sockets.
  std::uint32_t rails = 1;

  /// Rail choice policy when rails > 1.
  RailScheduler rail_scheduler = RailScheduler::kShortestOutstanding;

  /// Register send/receive buffers on first use instead of requiring an
  /// explicit RegisterMemory() call.
  bool auto_register_memory = true;

  /// Small-transfer coalescing (off by default).  When enabled, the sender
  /// stages consecutive small sends that would otherwise each pay a full
  /// WWI posting, and emits them as one merged WWI; the receiver
  /// piggybacks pending ACK free-counts onto outgoing ADVERTs so the
  /// steady-state indirect loop costs one control message instead of two.
  /// Per-send completion events and exact byte continuity are preserved.
  struct Coalesce {
    bool enabled = false;
    /// Staging capacity; only sends of at most this size are staged.
    std::uint64_t max_bytes = 4 * kKiB;
    /// Longest a staged byte may wait before the buffer is flushed.
    SimDuration max_delay = Microseconds(5);
  } coalesce;

  /// Hot-path batching (off by default; everything here is opt-in and the
  /// defaults are bit-identical to pre-batching builds).  Three
  /// independently armable pieces:
  ///   - doorbell batching: the WWIs one sender pump pass produces are
  ///     posted behind a single doorbell (QueuePair::PostSendBatch), so a
  ///     burst of small chunks pays one doorbell_cost plus per_wr_cost
  ///     each instead of send_wr_overhead each — the WR-bound-regime
  ///     optimisation (RDMAbox-style WR merging);
  ///   - sendv aggregation: the coalescing stage records staged members as
  ///     gather-list references instead of memcpy-ing them into a staging
  ///     buffer, and flushes them as one multi-SGE WWI — zero staging
  ///     copies on the coalesce path (requires coalesce.enabled; falls
  ///     back to staging copies while recovery is on, which needs an owned
  ///     snapshot anyway);
  ///   - MR registration cache: arms the device-level LRU cache
  ///     (verbs::Device::EnableMrCache) plus the registration cost model,
  ///     so Sendv slice registration and staging-buffer reuse hit warm
  ///     registrations instead of re-pinning.
  struct Batching {
    /// Post the chunks of one pump pass behind a single doorbell.
    bool doorbell = false;
    /// Bound on WRs per doorbell ring (the batch depth the benches sweep).
    std::uint32_t max_wrs = 8;
    /// Completions handed to this socket's channels per CPU pass — the
    /// ibv_poll_cq drain-loop idiom (verbs::CompletionQueue::
    /// SetDispatchBatch).  Per-event CPU still accrues per completion;
    /// what changes is that a drained clump's handlers run at one
    /// simulated instant, so the sends they trigger land in one doorbell
    /// batch.  1 (the default) keeps one-completion-per-pass dispatch,
    /// bit-identical to pre-batching builds.
    std::uint32_t cq_drain = 1;
    /// Coalesce by gather-list aggregation instead of staging copies.
    bool sendv_aggregation = false;
    /// Unpinned entries the device MR cache retains; 0 leaves it off.
    std::size_t mr_cache_entries = 0;
  } batching;

  /// Fatal-fault recovery (off by default).  When enabled, the sender
  /// snapshots every submitted payload into a retransmission log pruned by
  /// the receiver's delivered-byte frontier (piggybacked on ACKs/ADVERTs),
  /// so a killed transport can be reconnected with Socket::ResumePair: the
  /// resume handshake re-synchronises both halves at the exact delivered
  /// boundary — not the completed-WR boundary, which Borrill's "completion
  /// fallacy" shows may lie beyond what ever arrived — and the sender
  /// replays the unacknowledged suffix.  Off, the protocol is bit-identical
  /// to pre-recovery builds (wire bytes, timing, and trace fingerprints).
  struct Recovery {
    bool enabled = false;
  } recovery;

  /// Test-only sabotage hooks proving the invariant checker can catch real
  /// protocol bugs (tests/invariant_checker_test.cpp, exs_torture
  /// --sabotage).  Each disables one safety rule the paper's theorem rests
  /// on; production code never sets them.
  struct Sabotage {
    /// Sender skips the Fig. 2/8 staleness filter and acceptance check: a
    /// prior-phase or behind-sequence ADVERT is consumed as if fresh.
    bool accept_stale_adverts = false;
    /// Receiver skips the Fig. 3 gate and advertises while the
    /// intermediate buffer still holds bytes.
    bool advertise_without_gate = false;
  } sabotage;

  std::uint64_t ResolvedAckThreshold() const {
    return ack_threshold_bytes != 0 ? ack_threshold_bytes
                                    : intermediate_buffer_bytes / 8;
  }
};

struct SendFlags {};

struct RecvFlags {
  /// MSG_WAITALL: complete only once the buffer is completely full.
  bool waitall = false;
};

enum class EventType : std::uint8_t {
  kSendComplete,
  kRecvComplete,
  /// The peer closed its sending direction; all stream data has been
  /// delivered.  Outstanding and future receives complete with whatever
  /// bytes they already hold (possibly zero) — classic end-of-stream.
  kPeerClosed,
  kError,
};

/// Completion event delivered on a socket's event queue, the asynchronous
/// half of the ES-API: requests return immediately and finish here.
struct Event {
  EventType type = EventType::kError;
  std::uint64_t id = 0;      ///< request id returned by Send()/Recv()
  std::uint64_t bytes = 0;   ///< bytes transferred
  bool truncated = false;    ///< SEQPACKET only: message exceeded the buffer
};

/// Counters the paper reports (Table III and the transfer-ratio figures)
/// plus supporting protocol detail.  Direction-specific: a socket has one
/// set for its outgoing stream ("tx") and the peer socket observes the
/// matching receiver-side counts for its incoming stream ("rx").
struct StreamStats {
  // Sender half (this socket's outgoing stream).
  std::uint64_t direct_transfers = 0;
  std::uint64_t indirect_transfers = 0;
  std::uint64_t direct_bytes = 0;
  std::uint64_t indirect_bytes = 0;
  /// Transitions between consecutive transfers of different kinds; starting
  /// with an indirect transfer counts as one switch (the connection begins
  /// in a direct phase).
  std::uint64_t mode_switches = 0;
  std::uint64_t adverts_received = 0;
  std::uint64_t adverts_discarded = 0;
  std::uint64_t sender_phase = 0;
  /// Coalescing: sends that passed through the staging buffer, the bytes
  /// they carried, and how many merged WWIs flushed them out.
  std::uint64_t coalesced_sends = 0;
  std::uint64_t coalesced_bytes = 0;
  std::uint64_t coalesce_flushes = 0;
  /// Hot-path batching: doorbells rung through batched posting and the
  /// work requests they covered (tx side, all rails); vectored Sendv()
  /// calls; staging-buffer memcpys performed on the coalesce path (exactly
  /// 0 when sendv aggregation is active — the zero-copy witness); merged
  /// flushes emitted as one multi-SGE gather WWI.
  std::uint64_t doorbell_batches = 0;
  std::uint64_t batched_wrs = 0;
  std::uint64_t sendv_calls = 0;
  std::uint64_t coalesce_staging_copies = 0;
  std::uint64_t coalesce_sg_flushes = 0;
  /// MR registration traffic on the socket's device: actual registrations
  /// performed and pins served from the registration cache.
  std::uint64_t mr_registrations = 0;
  std::uint64_t mr_cache_hits = 0;

  // Receiver half (this socket's incoming stream).
  std::uint64_t adverts_sent = 0;
  std::uint64_t acks_sent = 0;
  /// ACK free-counts that rode an outgoing ADVERT instead of their own
  /// control message (StreamOptions::Coalesce).
  std::uint64_t acks_piggybacked = 0;
  std::uint64_t credit_messages_sent = 0;
  std::uint64_t bytes_copied_out = 0;  ///< drained from intermediate buffer
  std::uint64_t direct_bytes_received = 0;
  std::uint64_t indirect_bytes_received = 0;
  std::uint64_t receiver_phase = 0;

  // Application-visible totals.
  std::uint64_t sends_completed = 0;
  std::uint64_t recvs_completed = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;

  std::uint64_t TotalTransfers() const {
    return direct_transfers + indirect_transfers;
  }
  double DirectTransferRatio() const {
    std::uint64_t total = TotalTransfers();
    return total == 0 ? 0.0
                      : static_cast<double>(direct_transfers) /
                            static_cast<double>(total);
  }
};

/// Phase parity per the paper: even phases are direct, odd are indirect.
constexpr bool PhaseIsDirect(std::uint64_t phase) { return (phase & 1) == 0; }
constexpr bool PhaseIsIndirect(std::uint64_t phase) { return (phase & 1) == 1; }
constexpr std::uint64_t NextPhase(std::uint64_t phase) { return phase + 1; }

}  // namespace exs
