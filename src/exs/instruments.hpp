// Pre-resolved protocol instruments — the socket's single source of truth
// for every counter the paper reports (Table III, the transfer-ratio
// figures) plus the time-resolved signals its evaluation reasons about:
// ADVERT round trips, phase dwell, intermediate-buffer pressure, credit
// and in-flight WR depth, and copy-out cost.
//
// The instruments every socket carries are declared once, in the static
// schema table of instruments.cpp (name, unit, kind), and held by value
// in one flat SocketInstrumentBlock per socket.  The socket's
// metrics::Registry takes their names, units and snapshot order from that
// table, so a socket's instruments cost no allocation, and a histogram's
// buckets are allocated only when it is first recorded.  The mux.*
// entries are carried by muxed sockets only.  Instruments created by name
// elsewhere (rail<i>.*, engine.sched_delay, trace.dropped_*) stay in the
// registry's by-name tier.
//
// The hot paths (stream_tx/stream_rx/seqpacket/rendezvous/channel) poke
// the SocketInstruments pointers directly; Socket::stats() folds them back
// into the legacy StreamStats snapshot, so there is exactly one place a
// number can come from.  Metric names, units, and the paper artefact each
// one explains are catalogued in docs/OBSERVABILITY.md.
#pragma once

#include <array>
#include <cstddef>

#include "common/metrics.hpp"

namespace exs {

/// Every instrument of the socket schema, by value: one array per kind,
/// whose entry i is that kind's i-th schema entry in name order among
/// those the socket carries (a classic socket leaves the mux.* slots
/// unused).
struct SocketInstrumentBlock {
  static constexpr std::size_t kCounters = 38;
  static constexpr std::size_t kGauges = 2;
  static constexpr std::size_t kHistograms = 7;
  static constexpr std::size_t kSeries = 4;

  std::array<metrics::Counter, kCounters> counters;
  std::array<metrics::Gauge, kGauges> gauges;
  std::array<metrics::Histogram, kHistograms> histograms;
  std::array<metrics::TimeWeightedSeries, kSeries> series;
};

struct SocketInstruments {
  // Sender half (this socket's outgoing stream).
  metrics::Counter* sends_completed = nullptr;
  metrics::Counter* bytes_sent = nullptr;
  metrics::Counter* direct_transfers = nullptr;
  metrics::Counter* indirect_transfers = nullptr;
  metrics::Counter* direct_bytes = nullptr;
  metrics::Counter* indirect_bytes = nullptr;
  metrics::Counter* mode_switches = nullptr;
  metrics::Counter* adverts_received = nullptr;
  metrics::Counter* adverts_discarded = nullptr;
  metrics::Gauge* tx_phase = nullptr;
  metrics::Histogram* tx_phase_dwell_direct = nullptr;    ///< ps per phase
  metrics::Histogram* tx_phase_dwell_indirect = nullptr;  ///< ps per phase
  metrics::TimeWeightedSeries* tx_inflight_wwis = nullptr;
  metrics::TimeWeightedSeries* tx_remote_ring_used = nullptr;  ///< b_s view
  // Coalescing (StreamOptions::coalesce): staged sends/bytes and flushes
  // broken down by trigger (CoalesceFlushReason).
  metrics::Counter* coalesced_sends = nullptr;
  metrics::Counter* coalesced_bytes = nullptr;
  metrics::Counter* coalesce_flush_maxbytes = nullptr;
  metrics::Counter* coalesce_flush_timeout = nullptr;
  metrics::Counter* coalesce_flush_advert = nullptr;
  metrics::Counter* coalesce_flush_phase = nullptr;
  metrics::Counter* coalesce_flush_close = nullptr;
  metrics::Counter* coalesce_flush_ordering = nullptr;
  // Hot-path batching (StreamOptions::batching): doorbells rung through
  // batched posting and the WRs they covered; vectored Sendv() calls;
  // staging-buffer memcpys on the coalesce path (exactly 0 while sendv
  // aggregation is active — the zero-copy witness); flushes emitted as one
  // multi-SGE gather WWI instead of a staged copy.
  metrics::Counter* doorbell_batches = nullptr;
  metrics::Counter* doorbell_wrs = nullptr;
  metrics::Counter* sendv_calls = nullptr;
  metrics::Counter* coalesce_staging_copies = nullptr;
  metrics::Counter* coalesce_sg_flushes = nullptr;
  // MR registration traffic on the socket's device (mirrored from
  // verbs::Device counters: actual registrations vs cache-served pins).
  metrics::Counter* mr_registrations = nullptr;
  metrics::Counter* mr_cache_hits = nullptr;

  // Receiver half (this socket's incoming stream).
  metrics::Counter* recvs_completed = nullptr;
  metrics::Counter* bytes_received = nullptr;
  metrics::Counter* adverts_sent = nullptr;
  metrics::Counter* acks_sent = nullptr;
  metrics::Counter* acks_piggybacked = nullptr;  ///< ACKs riding ADVERTs
  metrics::Counter* direct_bytes_received = nullptr;
  metrics::Counter* indirect_bytes_received = nullptr;
  metrics::Counter* bytes_copied_out = nullptr;
  metrics::Counter* copy_busy_time = nullptr;  ///< ps the CPU spent copying
  metrics::Histogram* advert_rtt = nullptr;    ///< ADVERT -> first direct byte
  metrics::Gauge* rx_phase = nullptr;
  metrics::Histogram* rx_phase_dwell_direct = nullptr;
  metrics::Histogram* rx_phase_dwell_indirect = nullptr;
  metrics::TimeWeightedSeries* rx_ring_occupancy = nullptr;  ///< b_r

  // Control channel (shared by both halves).
  metrics::TimeWeightedSeries* send_credits = nullptr;
  metrics::Counter* credit_messages_sent = nullptr;

  // Fatal-fault recovery (StreamOptions::recovery; docs/FAULTS.md).
  metrics::Counter* transport_kills = nullptr;   ///< fatal transport deaths
  metrics::Counter* resumes = nullptr;           ///< successful resumes
  metrics::Counter* retransmitted_bytes = nullptr;  ///< re-sent after resume
  metrics::Histogram* resume_latency = nullptr;  ///< ps, kill -> resume

  // Shared-QP mux (muxed sockets only; null on a classic socket).
  metrics::Histogram* mux_hol_wait = nullptr;  ///< ps parked before sending
  metrics::Counter* mux_parks = nullptr;

  /// Bind the schema to `registry`, held in `block`, and point every field
  /// the socket carries (the mux.* ones only when `muxed`) at its
  /// instrument.  `block` must outlive `registry`, which must have no
  /// by-name instrument yet.
  static SocketInstruments Bind(SocketInstrumentBlock& block,
                                metrics::Registry& registry, bool muxed);
};

}  // namespace exs
