// Extension: open-loop RPC/KV traffic at many-thousand-client scale.
//
// Every other bench in this directory is closed-loop: a sender pushes, a
// completion refills the window, and a slow receiver slows the offered
// load down with it.  Real front-end traffic is the opposite — arrivals
// come from *users*, on their own clock.  This bench drives the RPC/KV
// tier (src/exs/rpc) with a deterministic seeded open-loop generator
// (src/exs/loadgen): per-client Poisson or bursty on/off arrival
// processes, Zipf key popularity, a mixed value-size distribution, all in
// simulated time — so 65536 simulated clients and their full response
// latency distribution cost one process and zero wall-clock-dependent
// noise.
//
// Two arms:
//
//   * mux — N clients multiplexed over one shared width-8 QP pool
//     (PR "shared-QP stream multiplexing"), each issuing a fixed number
//     of requests from its own arrival process against one sharded KV
//     server.  Reported per point: exact nearest-rank p50/p99/p999
//     response latency, goodput, refusal rate (remote REFUSED + local
//     shed), timeout rate, stale responses, and lost == 0 enforced by
//     the RPC conservation checker.  A slab-pressure point shrinks the
//     server's value slab so a bounded slice of PUTs is refused — the
//     overload regime, exercised deliberately.
//
//   * churn — clients connect through the engine acceptor's admission
//     gate in waves, run a short RPC burst, and disconnect; the acceptor
//     pool is sized below the wave width so a bounded share of connects
//     is REFUSED at the handshake (admission refusal rate), and leases
//     reclaimed by departing clients re-admit the next wave.
//
// The simulation carries real payload bytes (the frame decoder reads
// them), unlike the timing-only figure benches.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/spans.hpp"
#include "exs/engine/acceptor.hpp"
#include "exs/engine/progress_engine.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "exs/loadgen/arrivals.hpp"
#include "exs/loadgen/workload.hpp"
#include "exs/mux.hpp"
#include "exs/rpc/kv_server.hpp"
#include "exs/rpc/rpc_client.hpp"
#include "support.hpp"

namespace exs::bench {
namespace {

constexpr std::uint32_t kPoolWidth = 8;
constexpr std::uint32_t kRequestsPerClient = 4;
/// Aggregate arrival spacing: one RPC every ~12 us across the whole
/// client population (~83K req/s offered), independent of N — so every
/// point offers the same load and N sweeps *concurrency*, not rate.  The
/// rate sits below the server event loop's capacity (each request costs
/// a few ~1.5 us completion dispatches on the server CPU), the classic
/// open-loop operating point: queues form and drain, a bounded tail
/// times out, and the generator never slows down.  Both ends busy-poll
/// their completion queues, as a latency-sensitive KV front end would —
/// under event notification the 8 us wake-up per completion caps the
/// server near 35K req/s (the ext_busy_poll ablation quantifies this).
constexpr SimDuration kAggregateGap = Microseconds(12);
constexpr SimDuration kDeadline = Milliseconds(4);
constexpr std::uint16_t kChurnPort = 4100;

struct PointSpec {
  const char* arm = "mux";        ///< "mux" | "churn"
  const char* arrivals = "poisson";  ///< "poisson" | "onoff"
  std::uint32_t clients = 0;
  /// Value-slab slots on the server; small values force PUT refusals
  /// (the slab-pressure point).
  std::uint32_t slab_slots = 4096;
};

struct Point {
  PointSpec spec;
  std::uint64_t issued = 0;
  std::uint64_t answered = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t refused = 0;       ///< remote REFUSED + local shed
  std::uint64_t shed_local = 0;
  std::uint64_t stale = 0;
  std::uint64_t lost = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double goodput_mbps = 0.0;      ///< response bytes over the active span
  double rpc_per_sec = 0.0;
  double timeout_rate = 0.0;
  double refusal_rate = 0.0;
  std::uint64_t qps_created = 0;
  std::uint64_t admission_attempts = 0;  ///< churn arm only
  std::uint64_t admission_refusals = 0;
  bool checker_ran = false;
  std::uint64_t checker_violations = 0;
};

/// Per-client open-loop driver: owns the arrival process and the request
/// train, self-schedules on the simulator's timer wheel, and issues RPCs
/// against its RpcClient until the train is exhausted.
struct Driver {
  rpc::RpcClient* rpc = nullptr;
  loadgen::WorkloadGenerator workload;
  /// Added to the first gap only.  Bursty sources need it: every on/off
  /// train opens in an ON period, so a population starting at one instant
  /// would fire N synchronized bursts — a uniform draw over the on+off
  /// cycle gives each source an independent phase, the stationary regime.
  SimDuration initial_phase = 0;
  Rng arrival_rng;
  loadgen::PoissonProcess poisson;
  loadgen::OnOffBurstProcess onoff;
  bool bursty = false;
  std::uint32_t remaining = 0;

  Driver(loadgen::WorkloadGenerator gen, std::uint64_t arrival_seed,
         SimDuration mean_gap, bool is_bursty, std::uint32_t requests)
      : workload(std::move(gen)),
        arrival_rng(arrival_seed),
        poisson(mean_gap),
        onoff([mean_gap] {
          // Same long-run rate as the Poisson arm, delivered in bursts:
          // per-arrival average gap = burst_ia + mean_off / burst_size.
          loadgen::OnOffBurstProcess::Options o;
          o.burst_interarrival = mean_gap / 8;
          o.mean_burst_size = 16.0;
          o.mean_off = 14 * mean_gap;
          return o;
        }()),
        bursty(is_bursty),
        remaining(requests) {}

  SimDuration NextGap() {
    return bursty ? onoff.Next(arrival_rng) : poisson.Next(arrival_rng);
  }
};

void ScheduleArrivals(Simulation& sim, Driver* d, SimTime* last_done) {
  if (d->remaining == 0) return;
  const SimDuration gap = d->initial_phase + d->NextGap();
  d->initial_phase = 0;
  sim.scheduler().ScheduleAfter(gap, [&sim, d, last_done] {
    --d->remaining;
    const loadgen::WorkloadGenerator::Request req = d->workload.Next();
    std::uint8_t value[4096];  // >= the largest workload size class
    if (req.op == rpc::Op::kPut) {
      loadgen::WorkloadGenerator::FillValue(req.key, value, req.value_len);
    }
    d->rpc->Call(req.op, req.key,
                 req.op == rpc::Op::kPut ? value : nullptr, req.value_len,
                 [&sim, last_done](const rpc::RpcClient::Result&) {
                   if (sim.Now() > *last_done) *last_done = sim.Now();
                 });
    ScheduleArrivals(sim, d, last_done);
  });
}

/// Disconnects `rpc` once its train is issued and resolved: polls on the
/// timer wheel rather than threading a completion count through every
/// response callback.
void CloseWhenDone(Simulation& sim, Driver* d, rpc::RpcClient* rpc) {
  sim.scheduler().ScheduleAfter(Microseconds(50), [&sim, d, rpc] {
    if (d->remaining == 0 && rpc->pending_calls() == 0) {
      rpc->CloseSend();
      return;
    }
    CloseWhenDone(sim, d, rpc);
  });
}

/// Fold the per-client ledgers and latency vectors into the point report
/// and run the conservation checker.
void Summarise(Point* pt, const std::vector<const rpc::RpcLedger*>& ledgers,
               std::vector<SimDuration>* latencies,
               const rpc::RpcServerCounters& server, SimTime start,
               SimTime last_done, std::uint64_t response_bytes,
               std::vector<std::string>* failures,
               const std::string& where) {
  for (const rpc::RpcLedger* l : ledgers) {
    pt->issued += l->issued();
    pt->answered += l->Count(rpc::Outcome::kAnswered);
    pt->timed_out += l->Count(rpc::Outcome::kTimedOut);
    pt->refused += l->Count(rpc::Outcome::kRefused);
    pt->shed_local += l->shed_local;
    pt->stale += l->stale_responses;
    pt->lost += l->Count(rpc::Outcome::kPending);
  }
  if (pt->issued != 0) {
    pt->timeout_rate =
        static_cast<double>(pt->timed_out) / static_cast<double>(pt->issued);
    pt->refusal_rate =
        static_cast<double>(pt->refused) / static_cast<double>(pt->issued);
  }
  if (!latencies->empty()) {
    const spans::StageStats stats = spans::Summarise(latencies);
    pt->p50_us = static_cast<double>(stats.p50_ps) / 1e6;
    pt->p99_us = static_cast<double>(stats.p99_ps) / 1e6;
    pt->p999_us = static_cast<double>(stats.p999_ps) / 1e6;
  }
  if (last_done > start) {
    pt->goodput_mbps = ThroughputMbps(response_bytes, last_done - start);
    pt->rpc_per_sec = static_cast<double>(pt->answered) * 1e12 /
                      static_cast<double>(last_done - start);
  }

  InvariantReport report = CheckRpcConservation(ledgers, &server);
  pt->checker_ran = true;
  pt->checker_violations = report.violations.size();
  for (const std::string& v : report.violations) {
    failures->push_back(where + ": rpc conservation: " + v);
  }
  if (pt->lost != 0) {
    failures->push_back(where + ": " + std::to_string(pt->lost) +
                        " requests lost (no outcome at quiescence)");
  }
}

/// The scale arm: `spec.clients` muxed streams over one width-8 QP pool,
/// one sharded KV server, per-client open-loop arrival processes.
Point RunMuxPoint(const PointSpec& spec, std::uint64_t seed,
                  std::vector<std::string>* failures) {
  Point pt;
  pt.spec = spec;
  const std::string where = std::string("mux/") + spec.arrivals +
                            "/clients=" + std::to_string(spec.clients);

  Simulation sim(simnet::HardwareProfile::FdrInfiniBand().WithBusyPolling(),
                 seed, /*carry_payload=*/true);
  MuxOptions mopts;
  mopts.width = kPoolWidth;
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);

  // Token-sized rings: the whole point of the mux tier is that per-stream
  // state stays tiny at 64Ki streams.
  StreamOptions sopts;
  sopts.credits = 8;
  sopts.intermediate_buffer_bytes = 2 * kKiB;
  sopts.max_wwi_chunk = 2 * kKiB;

  rpc::KvServerOptions kv_opts;
  kv_opts.slab_slots = spec.slab_slots;
  kv_opts.recv_chunk_bytes = 512;
  rpc::KvServer server(kv_opts);

  rpc::RpcClientOptions copts;
  copts.default_deadline = kDeadline;
  copts.max_outstanding = 16;
  copts.recv_chunk_bytes = 512;
  copts.deliver_values = false;  // timing the responses, not reading them

  loadgen::WorkloadOptions wl;
  wl.key_space = 1024;

  const SimDuration mean_gap =
      kAggregateGap * static_cast<SimDuration>(spec.clients);
  const bool bursty = std::string(spec.arrivals) == "onoff";
  std::vector<std::unique_ptr<rpc::RpcClient>> rpcs;
  std::vector<std::unique_ptr<Driver>> drivers;
  rpcs.reserve(spec.clients);
  drivers.reserve(spec.clients);
  SimTime last_done = 0;
  for (std::uint32_t c = 0; c < spec.clients; ++c) {
    auto [a, b] = sim.CreateMuxedPair(g0, g1, sopts);
    server.Attach(*b);
    rpcs.push_back(std::make_unique<rpc::RpcClient>(*a, sim.scheduler(),
                                                    copts));
    const std::uint64_t client_tag = 0x6f70656e6c6f6f70ULL + c;  // "openloop"
    drivers.push_back(std::make_unique<Driver>(
        loadgen::WorkloadGenerator(wl, SplitMix64(seed ^ client_tag).Next()),
        SplitMix64(seed ^ ~client_tag).Next(), mean_gap, bursty,
        kRequestsPerClient));
    Driver* d = drivers.back().get();
    d->rpc = rpcs.back().get();
    if (bursty) {
      // One on+off cycle = mean_burst_size * burst_ia + mean_off =
      // 16 * mean_gap / 8 + 14 * mean_gap.
      d->initial_phase = static_cast<SimDuration>(
          d->arrival_rng.NextDouble() *
          static_cast<double>(16 * mean_gap));
    }
  }
  // Settle the setup transient before starting the measured section.
  // Attaching N connections enqueues N initial-Recv posts (a few us of
  // CPU work each) at t=0; unlike steady-state work this backlog scales
  // with the *population*, not the offered rate, and at 64Ki clients it
  // would stall the server's event loop for hundreds of simulated
  // milliseconds — every early arrival would time out behind it.  A real
  // deployment amortises connection setup over seconds of ramp-up.
  sim.Run();
  const SimTime start = sim.Now();
  for (auto& d : drivers) ScheduleArrivals(sim, d.get(), &last_done);
  sim.Run();

  pt.qps_created = sim.device(0).QueuePairsCreated();
  if (pt.qps_created != kPoolWidth) {
    failures->push_back(where + ": expected " + std::to_string(kPoolWidth) +
                        " queue pairs, got " + std::to_string(pt.qps_created));
  }

  std::vector<const rpc::RpcLedger*> ledgers;
  std::vector<SimDuration> latencies;
  std::uint64_t response_bytes = 0;
  for (const auto& r : rpcs) {
    ledgers.push_back(&r->ledger());
    latencies.insert(latencies.end(), r->answer_latencies().begin(),
                     r->answer_latencies().end());
    response_bytes += r->response_bytes();
    if (r->framing_failed()) {
      failures->push_back(where + ": client frame decoder failed");
    }
  }
  Summarise(&pt, ledgers, &latencies, server.counters(), start, last_done,
            response_bytes, failures, where);

  InvariantReport mux_report = CheckMuxGroupPair(g0, g1);
  for (const std::string& v : mux_report.violations) {
    failures->push_back(where + ": mux conservation: " + v);
  }
  pt.checker_violations += mux_report.violations.size();
  return pt;
}

/// The churn arm: waves of clients through the engine acceptor's
/// admission gate; the pool under-provisions the wave so a bounded share
/// of connects is refused, and departures re-admit the next wave.
///
/// Admission is gated by ring leases only: leases are reclaimed the
/// moment the incoming stream hits EOF, so a departing client re-admits
/// a queued one.  Control-slot reservations, in contrast, live as long
/// as the accepted socket object (a closed peer can still be sent to),
/// and the bench never destroys server sockets mid-run — so the slot
/// pool gets full-population headroom or every post-first-wave connect
/// would be refused on slots alone.
Point RunChurnPoint(std::uint32_t clients, std::uint64_t seed,
                    std::vector<std::string>* failures) {
  Point pt;
  pt.spec.arm = "churn";
  pt.spec.clients = clients;
  const std::string where = "churn/clients=" + std::to_string(clients);

  Simulation sim(simnet::HardwareProfile::FdrInfiniBand().WithBusyPolling(),
                 seed, /*carry_payload=*/true);
  engine::ProgressEngine eng(sim.fabric().node(1).cpu(),
                             engine::ProgressEngineOptions{});
  // Admit at most half a wave's worth of concurrent rings: the rest of
  // each wave must be REFUSED at the handshake until departures free
  // leases.
  const std::uint32_t admit = std::max<std::uint32_t>(clients / 4, 8);
  engine::AcceptorOptions aopts;
  aopts.pool = {.pool_bytes = static_cast<std::uint64_t>(admit) * 2 * kKiB,
                .lease_bytes = 2 * kKiB,
                .high_watermark = 1.0,
                .low_watermark = 1.0};
  aopts.control_slots = clients * 8;
  engine::Acceptor acceptor(sim.device(1), eng, aopts);

  rpc::KvServerOptions kv_opts;
  kv_opts.recv_chunk_bytes = 512;
  rpc::KvServer server(kv_opts);

  StreamOptions sopts;
  sopts.credits = 8;
  sopts.intermediate_buffer_bytes = 2 * kKiB;
  acceptor.Listen(
      sim.connections(), kChurnPort, sopts,
      [&server](Socket& s, const Event& ev) { server.HandleEvent(s, ev); },
      [&server](Socket& s) { server.OnAccept(s); });

  StreamOptions copts;
  copts.credits = 8;
  copts.intermediate_buffer_bytes = 2 * kKiB;

  rpc::RpcClientOptions rpc_opts;
  rpc_opts.default_deadline = kDeadline;
  rpc_opts.recv_chunk_bytes = 512;

  loadgen::WorkloadOptions wl;
  wl.key_space = 256;

  std::vector<std::unique_ptr<rpc::RpcClient>> rpcs;
  std::vector<std::unique_ptr<Driver>> drivers;
  SimTime last_done = 0;
  const SimTime start = sim.Now();

  // Waves of `admit` attempted connects, spaced so the previous wave's
  // survivors have disconnected (their RPC train is ~4 x mean gap, far
  // under the spacing) and freed their leases.
  const std::uint32_t wave = admit;
  const SimDuration wave_gap = Milliseconds(4);
  const SimDuration mean_gap = Milliseconds(1);
  std::uint32_t launched = 0;
  for (std::uint32_t w = 0; launched < clients; ++w) {
    const std::uint32_t in_wave = std::min(wave, clients - launched);
    sim.scheduler().ScheduleAt(
        start + static_cast<SimDuration>(w) * wave_gap, [&, in_wave] {
          for (std::uint32_t i = 0; i < in_wave; ++i) {
            ++pt.admission_attempts;
            const std::uint64_t tag =
                0x636875726eULL + pt.admission_attempts;  // "churn"
            sim.Connect(
                0, kChurnPort, SocketType::kStream, copts,
                [&, tag](Socket* s) {
                  if (s == nullptr) {
                    ++pt.admission_refusals;
                    return;
                  }
                  rpcs.push_back(std::make_unique<rpc::RpcClient>(
                      *s, sim.scheduler(), rpc_opts));
                  drivers.push_back(std::make_unique<Driver>(
                      loadgen::WorkloadGenerator(
                          wl, SplitMix64(seed ^ tag).Next()),
                      SplitMix64(seed ^ ~tag).Next(), mean_gap,
                      /*is_bursty=*/false, kRequestsPerClient));
                  Driver* d = drivers.back().get();
                  d->rpc = rpcs.back().get();
                  rpc::RpcClient* rpc = rpcs.back().get();
                  ScheduleArrivals(sim, d, &last_done);
                  CloseWhenDone(sim, d, rpc);
                });
          }
        });
    launched += in_wave;
  }
  sim.Run();

  std::vector<const rpc::RpcLedger*> ledgers;
  std::vector<SimDuration> latencies;
  std::uint64_t response_bytes = 0;
  for (const auto& r : rpcs) {
    ledgers.push_back(&r->ledger());
    latencies.insert(latencies.end(), r->answer_latencies().begin(),
                     r->answer_latencies().end());
    response_bytes += r->response_bytes();
  }
  Summarise(&pt, ledgers, &latencies, server.counters(), start, last_done,
            response_bytes, failures, where);

  if (pt.admission_refusals == 0) {
    failures->push_back(where +
                        ": expected a bounded nonzero admission refusal "
                        "share, got zero (pool not under pressure)");
  }
  if (pt.admission_refusals >= pt.admission_attempts) {
    failures->push_back(where + ": every connect refused");
  }
  if (server.stats().connections_closed != rpcs.size()) {
    failures->push_back(
        where + ": server reaped " +
        std::to_string(server.stats().connections_closed) + " of " +
        std::to_string(rpcs.size()) + " connections");
  }
  return pt;
}

}  // namespace
}  // namespace exs::bench

int main(int argc, char** argv) {
  using namespace exs::bench;
  Args args = Args::Parse(argc, argv);
  PrintBanner(std::cout, "Ext: open-loop RPC/KV traffic (fdr)",
              "seeded per-client arrival processes (Poisson / bursty "
              "on/off), Zipf keys, mixed value sizes, muxed transports + "
              "acceptor churn",
              args);
  std::cout << "(one deterministic run per point; --runs/--messages do not "
               "apply)\n\n";

  std::vector<PointSpec> specs;
  if (args.quick) {
    specs = {{"mux", "poisson", 1024},
             {"mux", "onoff", 1024},
             {"mux", "poisson", 1024, /*slab_slots=*/64},
             {"mux", "poisson", 4096}};
  } else {
    specs = {{"mux", "poisson", 4096},
             {"mux", "onoff", 4096},
             {"mux", "poisson", 4096, /*slab_slots=*/64},
             {"mux", "poisson", 16384},
             {"mux", "poisson", 65536}};
  }
  const std::uint32_t churn_clients = args.quick ? 256 : 512;

  Report report("ext_openloop", args, /*record_runs=*/false);
  report.Set("requests_per_client", kRequestsPerClient);
  report.Set("aggregate_gap_ps", kAggregateGap);
  report.Set("deadline_ps", kDeadline);
  report.Begin({{"arm", "arm"},
                {"arrivals", "arrivals"},
                {"clients", "clients"},
                {"slab", "slab_slots"},
                {"", "issued"},
                {"", "answered"},
                {"", "timed_out"},
                {"", "refused"},
                {"", "shed_local"},
                {"", "stale"},
                {"", "lost"},
                {"p50 us", "p50_us"},
                {"p99 us", "p99_us"},
                {"p999 us", "p999_us"},
                {"goodput Mb/s", "goodput_mbps"},
                {"", "rpc_per_sec"},
                {"timeout %", "timeout_rate"},
                {"refusal %", "refusal_rate"},
                {"", "qps_created"},
                {"", "admission_attempts"},
                {"admission ref", "admission_refusals"},
                {"", "checker_ran"},
                {"", "checker_violations"},
                {"check", ""}});
  std::vector<std::string> failures;
  auto add_row = [&](const Point& p) {
    report.AddRow(
        {p.spec.arm, p.spec.arrivals, p.spec.clients, p.spec.slab_slots,
         p.issued, p.answered, p.timed_out, p.refused, p.shed_local, p.stale,
         p.lost, Fixed(p.p50_us, 1), Fixed(p.p99_us, 1), Fixed(p.p999_us, 1),
         Fixed(p.goodput_mbps, 0), p.rpc_per_sec,
         Shown(FormatDouble(p.timeout_rate * 100.0, 2), p.timeout_rate),
         Shown(FormatDouble(p.refusal_rate * 100.0, 2), p.refusal_rate),
         p.qps_created, p.admission_attempts, p.admission_refusals,
         p.checker_ran, p.checker_violations,
         CheckVerdict(p.checker_ran, p.checker_violations)});
  };
  for (const PointSpec& spec : specs) {
    add_row(RunMuxPoint(spec, /*seed=*/1, &failures));
  }
  add_row(RunChurnPoint(churn_clients, /*seed=*/1, &failures));
  report.Print();
  std::cout << "\n";
  report.Write(args.results_json_path);

  for (const std::string& f : failures) std::cerr << "FAIL " << f << "\n";
  return failures.empty() ? 0 : 1;
}
