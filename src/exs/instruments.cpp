#include "exs/instruments.hpp"

#include <algorithm>
#include <array>
#include <string_view>
#include <type_traits>
#include <variant>

namespace exs {
namespace {

using I = SocketInstruments;
using metrics::Counter;
using metrics::Gauge;
using metrics::Histogram;
using metrics::TimeWeightedSeries;

/// The SocketInstruments pointer an instrument is wired to.  Its type is
/// the instrument's kind.
using Field = std::variant<Counter* I::*, Gauge* I::*, Histogram* I::*,
                           TimeWeightedSeries* I::*>;

struct Declared {
  std::string_view name;
  std::string_view unit;
  Field field;
  bool mux_only = false;  ///< carried only by a socket riding a MuxStream
};

constexpr bool kMuxOnly = true;

// The socket schema: every instrument a socket carries, in name (and so
// snapshot) order.  docs/OBSERVABILITY.md catalogues what each explains.
constexpr Declared kSchema[] = {
    {"channel.credit_messages_sent", "messages", &I::credit_messages_sent},
    {"channel.send_credits", "credits", &I::send_credits},
    {"doorbell.batches", "doorbells", &I::doorbell_batches},
    {"doorbell.wrs_batched", "wrs", &I::doorbell_wrs},
    {"mr.cache_hits", "pins", &I::mr_cache_hits},
    {"mr.registrations", "regions", &I::mr_registrations},
    {"mux.hol_wait", "ps", &I::mux_hol_wait, kMuxOnly},
    {"mux.parks", "events", &I::mux_parks, kMuxOnly},
    {"recovery.resume_latency", "ps", &I::resume_latency},
    {"recovery.resumes", "resumes", &I::resumes},
    {"recovery.retransmitted_bytes", "bytes", &I::retransmitted_bytes},
    {"recovery.transport_kills", "kills", &I::transport_kills},
    {"rx.acks_piggybacked", "messages", &I::acks_piggybacked},
    {"rx.acks_sent", "messages", &I::acks_sent},
    {"rx.advert_rtt", "ps", &I::advert_rtt},
    {"rx.adverts_sent", "messages", &I::adverts_sent},
    {"rx.bytes_copied_out", "bytes", &I::bytes_copied_out},
    {"rx.bytes_received", "bytes", &I::bytes_received},
    {"rx.copy_busy_time", "ps", &I::copy_busy_time},
    {"rx.direct_bytes_received", "bytes", &I::direct_bytes_received},
    {"rx.indirect_bytes_received", "bytes", &I::indirect_bytes_received},
    {"rx.phase", "phase", &I::rx_phase},
    {"rx.phase_dwell_direct", "ps", &I::rx_phase_dwell_direct},
    {"rx.phase_dwell_indirect", "ps", &I::rx_phase_dwell_indirect},
    {"rx.recvs_completed", "ops", &I::recvs_completed},
    {"rx.ring_occupancy", "bytes", &I::rx_ring_occupancy},
    {"tx.adverts_discarded", "messages", &I::adverts_discarded},
    {"tx.adverts_received", "messages", &I::adverts_received},
    {"tx.bytes_sent", "bytes", &I::bytes_sent},
    {"tx.coalesce_flush_advert", "flushes", &I::coalesce_flush_advert},
    {"tx.coalesce_flush_close", "flushes", &I::coalesce_flush_close},
    {"tx.coalesce_flush_maxbytes", "flushes", &I::coalesce_flush_maxbytes},
    {"tx.coalesce_flush_ordering", "flushes", &I::coalesce_flush_ordering},
    {"tx.coalesce_flush_phase", "flushes", &I::coalesce_flush_phase},
    {"tx.coalesce_flush_timeout", "flushes", &I::coalesce_flush_timeout},
    {"tx.coalesce_sg_flushes", "flushes", &I::coalesce_sg_flushes},
    {"tx.coalesce_staging_copies", "copies", &I::coalesce_staging_copies},
    {"tx.coalesced_bytes", "bytes", &I::coalesced_bytes},
    {"tx.coalesced_sends", "ops", &I::coalesced_sends},
    {"tx.direct_bytes", "bytes", &I::direct_bytes},
    {"tx.direct_transfers", "transfers", &I::direct_transfers},
    {"tx.indirect_bytes", "bytes", &I::indirect_bytes},
    {"tx.indirect_transfers", "transfers", &I::indirect_transfers},
    {"tx.inflight_wwis", "wrs", &I::tx_inflight_wwis},
    {"tx.mode_switches", "switches", &I::mode_switches},
    {"tx.phase", "phase", &I::tx_phase},
    {"tx.phase_dwell_direct", "ps", &I::tx_phase_dwell_direct},
    {"tx.phase_dwell_indirect", "ps", &I::tx_phase_dwell_indirect},
    {"tx.remote_ring_used", "bytes", &I::tx_remote_ring_used},
    {"tx.sends_completed", "ops", &I::sends_completed},
    {"tx.sendv_calls", "ops", &I::sendv_calls},
};

static_assert(std::ranges::adjacent_find(kSchema, std::ranges::greater_equal{},
                                         &Declared::name) ==
                  std::ranges::end(kSchema),
              "kSchema must be sorted by name, each name once");

constexpr bool Carried(const Declared& d, bool muxed) {
  return muxed || !d.mux_only;
}

template <typename T>
constexpr std::size_t CountOf(bool muxed) {
  return static_cast<std::size_t>(
      std::ranges::count_if(kSchema, [muxed](const Declared& d) {
        return Carried(d, muxed) && std::holds_alternative<T* I::*>(d.field);
      }));
}

/// The schema's entries of one kind a socket carries, in name order:
/// entry i lives at index i of the block's array of that kind.
template <typename T, bool kMuxed>
constexpr auto SpecsOf() {
  std::array<metrics::InstrumentSpec, CountOf<T>(kMuxed)> specs{};
  std::size_t n = 0;
  for (const Declared& d : kSchema) {
    if (Carried(d, kMuxed) && std::holds_alternative<T* I::*>(d.field)) {
      specs[n++] = {d.name, d.unit};
    }
  }
  return specs;
}

template <typename T, bool kMuxed>
constexpr auto kSpecs = SpecsOf<T, kMuxed>();

static_assert(CountOf<Counter>(true) == SocketInstrumentBlock::kCounters);
static_assert(CountOf<Gauge>(true) == SocketInstrumentBlock::kGauges);
static_assert(CountOf<Histogram>(true) == SocketInstrumentBlock::kHistograms);
static_assert(CountOf<TimeWeightedSeries>(true) ==
              SocketInstrumentBlock::kSeries);

template <typename T>
T* Instruments(SocketInstrumentBlock& block);
template <>
Counter* Instruments(SocketInstrumentBlock& block) {
  return block.counters.data();
}
template <>
Gauge* Instruments(SocketInstrumentBlock& block) {
  return block.gauges.data();
}
template <>
Histogram* Instruments(SocketInstrumentBlock& block) {
  return block.histograms.data();
}
template <>
TimeWeightedSeries* Instruments(SocketInstrumentBlock& block) {
  return block.series.data();
}

template <bool kMuxed>
void BindSchema(SocketInstrumentBlock& block, metrics::Registry& registry) {
  registry.Bind(kSpecs<Counter, kMuxed>, Instruments<Counter>(block));
  registry.Bind(kSpecs<Gauge, kMuxed>, Instruments<Gauge>(block));
  registry.Bind(kSpecs<Histogram, kMuxed>, Instruments<Histogram>(block));
  registry.Bind(kSpecs<TimeWeightedSeries, kMuxed>,
                Instruments<TimeWeightedSeries>(block));
}

}  // namespace

SocketInstruments SocketInstruments::Bind(SocketInstrumentBlock& block,
                                          metrics::Registry& registry,
                                          bool muxed) {
  if (muxed) {
    BindSchema<true>(block, registry);
  } else {
    BindSchema<false>(block, registry);
  }
  SocketInstruments inst;
  std::array<std::size_t, std::variant_size_v<Field>> next{};
  for (const Declared& d : kSchema) {
    if (!Carried(d, muxed)) continue;
    const std::size_t slot = next[d.field.index()]++;
    std::visit(
        [&](auto field) {
          using T = std::remove_pointer_t<
              std::remove_reference_t<decltype(inst.*field)>>;
          inst.*field = Instruments<T>(block) + slot;
        },
        d.field);
  }
  return inst;
}

}  // namespace exs
