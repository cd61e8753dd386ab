// The EXS socket: the public, sockets-like face of the library.
//
// Mirrors the ES-API shape the paper describes: sockets are created with a
// type (SOCK_STREAM or SOCK_SEQPACKET), I/O memory can be registered
// explicitly for zero-copy transfers, Send()/Recv() are asynchronous and
// return a request id immediately, and completions are retrieved from the
// socket's event queue.  Connection establishment is collapsed into
// ConnectPair() — the simulated stand-in for the listen/connect/accept
// exchange, during which the peers trade intermediate-buffer credentials.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "exs/channel.hpp"
#include "exs/event_queue.hpp"
#include "exs/instruments.hpp"
#include "exs/mux.hpp"
#include "exs/rendezvous.hpp"
#include "exs/seqpacket.hpp"
#include "exs/stream.hpp"
#include "exs/trace.hpp"
#include "exs/types.hpp"
#include "verbs/device.hpp"

namespace exs {

/// Optional shared-resource plumbing for engine-managed sockets.  A plain
/// (default-constructed) wiring reproduces the classic socket exactly: a
/// private receiver ring and a private control-slot slab per channel.
struct SocketWiring {
  /// Receiver ring carved from a shared BufferPool (see StreamContext).
  RingLease ring_lease;
  /// Control receive slots drawn from a shared SRQ-backed pool instead of
  /// a per-channel slab.  Requires rails == 1 (engine sockets never
  /// stripe; the shared pool reserves per-connection, not per-rail).
  ControlSlotSource* shared_slots = nullptr;
  /// The admission point already reserved `credits` slots against
  /// `shared_slots` (check and commitment are atomic there); the channel
  /// adopts that reservation — refunding it at teardown — instead of
  /// reserving again at Connect time.
  bool slots_reserved = false;
  /// Shared-QP multiplexing (docs/PROTOCOL.md §13): the socket rides this
  /// stream of a MuxGroup instead of owning a dedicated control channel —
  /// no queue pair, completion queues, or credit slab are created per
  /// connection.  Stream sockets only; rails and shared_slots must stay
  /// at their defaults.  Null (the default) is the classic dedicated
  /// transport, bit-identical to pre-mux builds.
  std::unique_ptr<MuxStream> mux_stream;
};

class Socket : public simnet::TransportKillTarget {
 public:
  Socket(verbs::Device& device, SocketType type, StreamOptions options,
         std::string name, SocketWiring wiring = {});

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Establish the connection between two sockets of the same type on
  /// opposite nodes (stands in for exs_connect()/exs_accept()).
  static void ConnectPair(Socket& a, Socket& b);

  /// Wire the transport between two sockets: the control channel plus the
  /// extra data rails both sides provisioned (the minimum of the two
  /// counts).  Shared by ConnectPair and the ConnectionService handshake;
  /// the rail count each side committed to rides in RingCredentials.
  static void ConnectTransport(Socket& a, Socket& b);

  /// Explicitly register I/O memory (exs_mregister()).  Buffers passed to
  /// Send()/Recv() must be covered by a registration; with
  /// options.auto_register_memory the library registers them on first use.
  verbs::MemoryRegionPtr RegisterMemory(void* addr, std::size_t len);

  /// Asynchronous send; returns the request id reported by the completion
  /// event.  The buffer must stay untouched until then (zero-copy).
  std::uint64_t Send(const void* buf, std::uint64_t len, SendFlags flags = {});

  /// One element of a vectored send (exs_sendv) — the library's iovec.
  struct IoSlice {
    const void* addr = nullptr;
    std::uint64_t len = 0;
  };

  /// Vectored asynchronous send (exs_sendv): one logical send — one
  /// request id, one completion — whose payload is gathered from up to
  /// verbs::kMaxSge slices by the HCA, with no host-side copy.  Stream
  /// sockets only.  Every slice buffer must stay untouched until the
  /// completion, exactly like Send's.  When the MR registration cache is
  /// armed (StreamOptions::Batching::mr_cache_entries), slice
  /// registrations are pinned through the cache and unpinned at
  /// completion, so repeated sends from the same buffers hit warm
  /// registrations.
  std::uint64_t Sendv(const IoSlice* iov, std::uint32_t n,
                      SendFlags flags = {});

  /// Asynchronous receive; RecvFlags::waitall requests MSG_WAITALL
  /// semantics (complete only when the buffer is full).
  std::uint64_t Recv(void* buf, std::uint64_t len, RecvFlags flags = {});

  /// Orderly close of this socket's *sending* direction (shutdown-write):
  /// queued sends flush first, then the peer observes end-of-stream — its
  /// outstanding receives complete with whatever they hold and it gets a
  /// kPeerClosed event.  Receiving on this socket remains possible until
  /// the peer closes its own sending side.  Sending after Close() throws.
  void Close();
  bool CloseRequested() const;

  EventQueue& events() { return *events_; }
  /// Legacy aggregate view, rebuilt on demand from the metrics registry —
  /// the registry's named instruments are the single source of truth.
  StreamStats stats() const;
  /// Every named counter/gauge/histogram/series this socket maintains.
  /// Names and units are catalogued in docs/OBSERVABILITY.md.
  const metrics::Registry& metrics_registry() const { return registry_; }
  metrics::Registry& metrics_registry() { return registry_; }

  /// Attach causal chunk tracing (common/spans.hpp): registers
  /// "<name>.tx"/"<name>.rx" endpoints and hands the collector to both
  /// stream halves.  No-op outside stream mode; never perturbs timing.
  void EnableChunkSpans(spans::SpanCollector* collector);
  /// Endpoint ids registered by EnableChunkSpans (0 until then); the
  /// timeline exporter uses them to pick this socket's chunks out of the
  /// shared collector.
  std::uint64_t tx_span_endpoint() const { return span_tx_endpoint_; }
  std::uint64_t rx_span_endpoint() const { return span_rx_endpoint_; }
  SocketType type() const { return type_; }
  const StreamOptions& options() const { return options_; }
  const std::string& name() const { return name_; }
  verbs::Device& device() { return *device_; }
  /// Dedicated control channel — classic sockets only (null on a muxed
  /// socket, whose transport is mux_stream()).
  const ControlChannel& channel() const { return *channel_; }
  /// The mux endpoint this socket rides, or null on a classic socket.
  MuxStream* mux_stream() { return mux_.get(); }
  const MuxStream* mux_stream() const { return mux_.get(); }
  bool Muxed() const { return mux_ != nullptr; }

  /// Protocol-state introspection (tests, invariant checks, examples).
  StreamTx* stream_tx() { return tx_.get(); }
  StreamRx* stream_rx() { return rx_.get(); }

  /// Engine reaping: hand a pool-leased receiver ring back once the
  /// incoming stream has hit EOF and drained (no-op on classic sockets
  /// and while the ring is still live).
  bool TryReleaseRxRing() { return rx_ ? rx_->TryReleaseRing() : false; }

  /// Record protocol traces for this socket (off by default).  The
  /// outgoing stream's sender events and the incoming stream's receiver
  /// events are kept separately so the invariant checker
  /// (exs/invariant_checker.hpp) can walk each.  `capacity` bounds each
  /// log (0 = unbounded); see TraceLog::SetCapacity for the drop
  /// semantics.
  void EnableTracing(std::size_t capacity = 0) {
    tx_trace_.SetCapacity(capacity);
    rx_trace_.SetCapacity(capacity);
    // Surface capacity drops in the metrics snapshot so a truncated trace
    // is visible without polling dropped() (see docs/OBSERVABILITY.md).
    tx_trace_.SetDropCounter(
        &registry_.GetCounter("trace.dropped_tx", "events"));
    rx_trace_.SetDropCounter(
        &registry_.GetCounter("trace.dropped_rx", "events"));
    tx_trace_.Enable();
    rx_trace_.Enable();
  }
  const TraceLog& tx_trace() const { return tx_trace_; }
  const TraceLog& rx_trace() const { return rx_trace_; }

  /// True when no requests are pending in either direction.
  bool Quiescent() const;

  // ---- Fatal faults and recovery (StreamOptions::recovery) --------------

  /// Force every transport channel this connection uses (control plus
  /// effective data rails) into the fatal error state: in-flight WRs flush
  /// with error completions, new posts are refused, and the peer's QPs die
  /// after the transport's ack delay.  Returns false when the transport is
  /// already dead — the kill is a no-op, never a second flush.
  /// (Implements the FaultInjector's simnet::TransportKillTarget, the
  /// kQpKill fault's landing point.)
  bool KillTransport() override;

  /// True once every channel the connection uses is dead.  The peer halves
  /// die one ack-delay later than the killed side; resume requires both.
  bool TransportDead() const;

  /// Reconnect two killed stream sockets and resume both byte streams at
  /// the exact delivered frontier (docs/PROTOCOL.md §12): fresh queue
  /// pairs, a sequence handshake re-basing each sender on its peer
  /// receiver's delivered bytes and ring cursors, retransmission of the
  /// unacknowledged suffix from the senders' logs, and — when `max_rails`
  /// is nonzero — rail failover onto the first `max_rails` surviving rails.
  /// Requires StreamOptions::recovery.enabled on both sockets and both
  /// transports dead.  Delivered byte content is unchanged by any
  /// kill/resume: the equivalence harness in tests/stream_recovery_test
  /// holds the delivered FNV fingerprint byte-identical to an unkilled run.
  static void ResumePair(Socket& a, Socket& b, std::size_t max_rails = 0);

  // ---- Connection-establishment internals -------------------------------
  // Used by ConnectPair() and by the ConnectionService handshake
  // (exs/connection.hpp); not part of the application API.

  /// Intermediate-buffer credentials this socket's incoming stream
  /// advertises to its peer (zeros for SOCK_SEQPACKET), plus the number of
  /// data rails this side provisioned — the striping negotiation settles
  /// on the minimum of both sides' counts.
  struct RingCredentials {
    std::uint64_t addr = 0;
    std::uint32_t rkey = 0;
    std::uint64_t capacity = 0;
    std::uint32_t rails = 1;
  };
  RingCredentials LocalRingCredentials() const;

  /// Install the peer's intermediate-buffer credentials and open the
  /// socket for I/O.  The control channels must already be linked.
  void CompleteEstablishment(const RingCredentials& peer_ring);

  ControlChannel& channel_internal() { return *channel_; }

  /// Rails this socket built at construction (1 + extra data channels).
  std::size_t ProvisionedRails() const { return 1 + data_rails_.size(); }
  /// Rails the connection actually stripes across after negotiation; 1
  /// until CompleteEstablishment, and forever on classic connections.
  std::size_t effective_rails() const { return effective_rails_; }
  const ControlChannel& data_rail(std::size_t i) const {
    return *data_rails_[i];
  }

 private:
  const verbs::MemoryRegion* FindOrRegister(const void* addr,
                                            std::uint64_t len);
  StreamContext MakeContext(TraceLog* trace);
  void WireCallbacks();
  void WireRailCallbacks(std::size_t rail);
  /// First channel death of a (possibly multi-rail) transport kill: trace
  /// markers on both halves, one kError event, the kill counter.
  void OnTransportFatal(verbs::WcStatus status);
  /// Register "rail<i>.*" instruments and attach them to the channel
  /// carrying that rail (rail 0 is the control channel itself).
  void InstrumentRail(std::size_t rail, ControlChannel& channel);
  /// The transport the protocol halves drive: the mux stream when wired,
  /// else the dedicated control channel.
  ChannelEndpoint* endpoint() {
    return mux_ ? static_cast<ChannelEndpoint*>(mux_.get()) : channel_.get();
  }

  verbs::Device* device_;
  SocketType type_;
  StreamOptions options_;
  std::string name_;
  SocketWiring wiring_;
  /// The schema's instruments; declared before registry_, which points
  /// into it.
  SocketInstrumentBlock instrument_block_;
  metrics::Registry registry_;
  SocketInstruments inst_;
  /// "rail<i>.hol_wait" histograms, index = rail (built by InstrumentRail,
  /// handed to the receiver half at construction).
  std::vector<metrics::Histogram*> rail_hol_inst_;
  std::uint64_t span_tx_endpoint_ = 0;
  std::uint64_t span_rx_endpoint_ = 0;
  std::unique_ptr<ControlChannel> channel_;  ///< null on muxed sockets
  std::unique_ptr<MuxStream> mux_;           ///< null on classic sockets
  /// Extra data-only rails 1..N-1 (empty on classic single-rail sockets).
  std::vector<std::unique_ptr<ControlChannel>> data_rails_;
  std::size_t effective_rails_ = 1;
  std::unique_ptr<EventQueue> events_;
  std::unique_ptr<StreamTx> tx_;
  std::unique_ptr<StreamRx> rx_;
  std::unique_ptr<SeqPacketTx> packet_tx_;
  std::unique_ptr<SeqPacketRx> packet_rx_;
  std::unique_ptr<RendezvousTx> rendezvous_tx_;
  std::unique_ptr<RendezvousRx> rendezvous_rx_;
  std::map<std::uint64_t, verbs::MemoryRegionPtr> regions_by_start_;
  TraceLog tx_trace_;
  TraceLog rx_trace_;
  std::uint64_t next_request_id_ = 1;
  bool connected_ = false;
  /// Recovery: one kError event per transport death (reset at resume so a
  /// second kill reports again), and when the death was observed (resume
  /// latency histogram).
  bool fatal_event_raised_ = false;
  SimTime death_time_ = 0;
};

}  // namespace exs
