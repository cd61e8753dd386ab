#include "layers.hpp"

#include <string>

#include "common/metrics.hpp"
#include "common/spans.hpp"
#include "exs/channel.hpp"

namespace perfbench {
namespace {

namespace metrics = exs::metrics;

double PerOp(double total, std::uint64_t ops) {
  return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Read-only lookups: Registry::Get* would create missing instruments.
double CounterValue(const metrics::Registry& r, const std::string& name) {
  const auto it = r.counters().find(name);
  return it == r.counters().end()
             ? 0.0
             : static_cast<double>(it->second.instrument->value());
}

const metrics::Histogram* FindHistogram(const metrics::Registry& r,
                                        const std::string& name) {
  const auto it = r.histograms().find(name);
  return it == r.histograms().end() ? nullptr : it->second.instrument.get();
}

const metrics::TimeWeightedSeries* FindSeries(const metrics::Registry& r,
                                              const std::string& name) {
  const auto it = r.series().find(name);
  return it == r.series().end() ? nullptr : it->second.instrument.get();
}

}  // namespace

void ReadSocketLayers(const std::vector<exs::Socket*>& sockets,
                      exs::SimTime now, std::uint64_t ops,
                      std::uint64_t shared_credit_messages, Metrics* m) {
  double direct = 0, indirect = 0, switches = 0, adverts = 0, discarded = 0;
  double copy_busy_ps = 0, credit_messages = 0, parks = 0;
  double occupancy_sum = 0;
  std::uint64_t occupancy_n = 0;
  // Histogram sums and counts are exact; their percentiles are only as
  // fine as the log2 buckets, so the readings here are means and totals.
  double rtt_sum_ps = 0, rtt_n = 0, hol_wait_ps = 0;
  for (const exs::Socket* s : sockets) {
    const metrics::Registry& r = s->metrics_registry();
    direct += CounterValue(r, "tx.direct_transfers");
    indirect += CounterValue(r, "tx.indirect_transfers");
    switches += CounterValue(r, "tx.mode_switches");
    adverts += CounterValue(r, "tx.adverts_received");
    discarded += CounterValue(r, "tx.adverts_discarded");
    copy_busy_ps += CounterValue(r, "rx.copy_busy_time");
    credit_messages += CounterValue(r, "channel.credit_messages_sent");
    parks += CounterValue(r, "mux.parks");
    if (const auto* h = FindHistogram(r, "rx.advert_rtt")) {
      rtt_sum_ps += static_cast<double>(h->sum());
      rtt_n += static_cast<double>(h->count());
    }
    if (const auto* h = FindHistogram(r, "mux.hol_wait")) {
      hol_wait_ps += static_cast<double>(h->sum());
    }
    // Only sockets whose receive ring saw data contribute to the mean.
    if (const auto* ring = FindSeries(r, "rx.ring_occupancy");
        ring != nullptr && ring->count() != 0) {
      occupancy_sum += ring->Average(now);
      ++occupancy_n;
    }
  }
  (*m)["stream.direct_ratio"] = Ratio(direct, direct + indirect);
  (*m)["stream.mode_switches"] = switches;
  (*m)["stream.advert_waste"] = Ratio(discarded, adverts);
  (*m)["stream.rx_copy_busy_us"] = copy_busy_ps / 1e6;
  (*m)["stream.ring_occupancy_mean"] =
      Ratio(occupancy_sum, static_cast<double>(occupancy_n));
  (*m)["stream.advert_rtt_mean_us"] = Ratio(rtt_sum_ps, rtt_n) / 1e6;
  (*m)["channel.credit_messages_per_op"] = PerOp(
      credit_messages + static_cast<double>(shared_credit_messages), ops);
  (*m)["mux.parks"] = parks;
  // Summed park-to-send waits over the run's simulated time: the mean
  // number of streams parked behind a busy slot (Little's law).
  (*m)["mux.parked_streams_mean"] =
      Ratio(hol_wait_ps, static_cast<double>(now));
}

void ReadVerbsLayer(const std::vector<const exs::ControlChannel*>& qp_owners,
                    exs::Simulation& sim, std::uint64_t ops, Metrics* m) {
  double wrs = 0, doorbells = 0, batched = 0, rnr = 0;
  for (const exs::ControlChannel* c : qp_owners) {
    if (!c->HasQueuePair()) continue;
    const auto& st = c->qp_stats();
    wrs += static_cast<double>(st.sends_posted + st.recvs_posted);
    doorbells += static_cast<double>(st.doorbells);
    batched += static_cast<double>(st.batched_wrs);
    rnr += static_cast<double>(st.rnr_errors);
  }
  const double wire_bytes =
      static_cast<double>(sim.fabric().channel_from(0).BytesCarried() +
                          sim.fabric().channel_from(1).BytesCarried());
  (*m)["verbs.wrs_per_op"] = PerOp(wrs, ops);
  (*m)["verbs.wire_bytes_per_op"] = PerOp(wire_bytes, ops);
  (*m)["verbs.doorbells"] = doorbells;
  (*m)["verbs.batched_wrs"] = batched;
  (*m)["verbs.rnr_errors"] = rnr;
}

CpuWindow OpenCpuWindow(exs::Simulation& sim) {
  const auto& cpu = sim.fabric().node(1).cpu();
  return CpuWindow{cpu.BusyTime(), cpu.CompletedTasks()};
}

void ReadSimnetLayer(exs::Simulation& sim, const CpuWindow& window,
                     exs::SimDuration busy_end, exs::SimDuration span,
                     Rep* rep) {
  Metrics* m = &rep->sim;
  const std::uint64_t ops = rep->completed;
  (*m)["simnet.events"] = static_cast<double>(rep->measured_events);
  (*m)["simnet.setup_events"] = static_cast<double>(rep->setup_events);
  (*m)["simnet.events_per_op"] =
      PerOp(static_cast<double>(rep->measured_events), ops);
  const auto& cpu = sim.fabric().node(1).cpu();
  const auto busy = static_cast<double>(busy_end - window.busy_start);
  (*m)["simnet.server_cpu_busy_frac"] =
      Ratio(busy, static_cast<double>(span));
  (*m)["simnet.server_cpu_tasks_per_op"] = PerOp(
      static_cast<double>(cpu.CompletedTasks() - window.tasks_start), ops);
  // End-to-end sim metrics that derive from the same window.
  (*m)["server_cpu_us_per_op"] = PerOp(busy / 1e6, ops);
  (*m)["rx_cpu_pct"] = 100.0 * Ratio(busy, static_cast<double>(span));
}

void ReadSpanStages(const exs::spans::SpanCollector& spans, Metrics* m) {
  using exs::spans::Stage;
  const exs::spans::LatencyReport report = spans.BuildReport();
  const auto& wire = report.stages[static_cast<std::size_t>(Stage::kWire)];
  (*m)["span.wire_p50_us"] = static_cast<double>(wire.p50_ps) / 1e6;
  (*m)["span.wire_p99_us"] = static_cast<double>(wire.p99_ps) / 1e6;
  (*m)["span.chunk_p99_us"] =
      static_cast<double>(report.end_to_end.p99_ps) / 1e6;
  // Stages partition each chunk's latency, so their sums split the summed
  // end-to-end latency exactly.  Stages the model gives zero length on a
  // workload read 0 % here rather than a constant 0 us percentile.
  const std::pair<Stage, const char*> stages[] = {
      {Stage::kTxQueue, "tx_queue"},
      {Stage::kWire, "wire"},
      {Stage::kRxRing, "rx_ring"},
      {Stage::kRxCopy, "rx_copy"},
      {Stage::kRxDeliver, "rx_deliver"}};
  for (const auto& [stage, name] : stages) {
    const auto& st = report.stages[static_cast<std::size_t>(stage)];
    (*m)[std::string("span.") + name + "_pct"] =
        100.0 * Ratio(static_cast<double>(st.sum_ps),
                      static_cast<double>(report.end_to_end.sum_ps));
  }
}

}  // namespace perfbench
