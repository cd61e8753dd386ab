// Per-layer readings taken from the library's public counters after a
// workload has run.  All of them are simulated-clock or event counts, so
// they are deterministic for a seed and enter the run's fingerprint.
#pragma once

#include <cstdint>
#include <vector>

#include "exs/exs.hpp"
#include "harness.hpp"

namespace perfbench {

/// exs.stream, exs.channel and mux.parks / mux.hol_wait over every socket
/// of the run (both directions), read at simulated time `now`.  `ops` is
/// the per-op denominator; `shared_credit_messages` adds credit messages
/// of channels no socket owns (a MuxGroup's slots).
void ReadSocketLayers(const std::vector<exs::Socket*>& sockets,
                      exs::SimTime now, std::uint64_t ops,
                      std::uint64_t shared_credit_messages, Metrics* m);

/// verbs: work requests, doorbells and RNR errors over the channels that
/// own the run's queue pairs, and wire bytes over both link directions.
void ReadVerbsLayer(const std::vector<const exs::ControlChannel*>& qp_owners,
                    exs::Simulation& sim, std::uint64_t ops, Metrics* m);

/// simnet: events, and server-node CPU from `window` (opened when the
/// measured phase starts) to `busy_end` over the simulated `span`.  Also
/// the end-to-end server_cpu_us_per_op and rx_cpu_pct.  Reads the event
/// and completed-op counts from `rep` and writes `rep->sim`.
struct CpuWindow {
  exs::SimDuration busy_start = 0;
  std::uint64_t tasks_start = 0;
};
CpuWindow OpenCpuWindow(exs::Simulation& sim);
void ReadSimnetLayer(exs::Simulation& sim, const CpuWindow& window,
                     exs::SimDuration busy_end, exs::SimDuration span,
                     Rep* rep);

/// Chunk spans (enabled on the traced repetition): wire and end-to-end
/// percentiles, and each stage's share of the summed chunk latency.
void ReadSpanStages(const exs::spans::SpanCollector& spans, Metrics* m);

}  // namespace perfbench
