// kv_fanout and kv_hot: open-loop RPC/KV traffic over the shared-QP mux,
// set up the way bench/ext_openloop's mux arm sets it up.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/spans.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "exs/loadgen/arrivals.hpp"
#include "exs/loadgen/workload.hpp"
#include "exs/mux.hpp"
#include "exs/rpc/kv_server.hpp"
#include "exs/rpc/rpc_client.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using exs::SimDuration;
using exs::SimTime;

constexpr std::uint32_t kPoolWidth = 8;
/// One request every 12 us across the whole population (~83K req/s), the
/// ext_openloop operating point: below the server's capacity, so queues
/// form and drain and no request fails at the base rate.
constexpr SimDuration kAggregateGap = exs::Microseconds(12);
constexpr SimDuration kDeadline = exs::Milliseconds(4);

struct Client {
  Client(std::unique_ptr<exs::rpc::RpcClient> r,
         exs::loadgen::WorkloadGenerator w, std::uint64_t arrival_seed,
         SimDuration mean_gap, std::uint32_t requests)
      : rpc(std::move(r)),
        workload(std::move(w)),
        arrival_rng(arrival_seed),
        arrivals(mean_gap),
        remaining(requests) {}

  std::unique_ptr<exs::rpc::RpcClient> rpc;
  exs::loadgen::WorkloadGenerator workload;
  exs::Rng arrival_rng;
  exs::loadgen::PoissonProcess arrivals;
  std::uint32_t remaining;
};

/// Everything one repetition owns.  Members are destroyed in reverse
/// order, matching ext_openloop: clients, server, groups, simulation.
struct KvRun {
  std::unique_ptr<exs::Simulation> sim;
  std::unique_ptr<exs::MuxGroup> g0;
  std::unique_ptr<exs::MuxGroup> g1;
  std::unique_ptr<exs::rpc::KvServer> server;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<exs::Socket*> sockets;

  Tracer* tracer = nullptr;
  std::uint64_t next_op = 0;
  std::uint64_t resolutions = 0;
  SimDuration max_lateness = 0;
  SimTime last_done = 0;
  SimDuration busy_at_last_done = 0;
};

void ScheduleNext(KvRun& run, Client* c);

void Arrive(KvRun& run, Client* c, SimTime due) {
  exs::Simulation& sim = *run.sim;
  // The arrival event fires at its due time, so RPCs timed from issue are
  // timed from their scheduled arrival; the gate asserts it.
  run.max_lateness = std::max(run.max_lateness, sim.Now() - due);
  --c->remaining;
  const std::uint64_t op = ++run.next_op;
  Scope arrival(run.tracer, "bench", "arrival", op);
  exs::loadgen::WorkloadGenerator::Request req;
  {
    Scope s(run.tracer, "exs.loadgen", "loadgen.next", op);
    req = c->workload.Next();
  }
  std::uint8_t value[4096];  // >= the largest workload size class
  const bool put = req.op == exs::rpc::Op::kPut;
  if (put) {
    exs::loadgen::WorkloadGenerator::FillValue(req.key, value, req.value_len);
  }
  {
    Scope s(run.tracer, "exs.rpc", "rpc.call", op);
    c->rpc->Call(req.op, req.key, put ? value : nullptr, req.value_len,
                 [&run, op](const exs::rpc::RpcClient::Result&) {
                   Scope r(run.tracer, "bench", "response", op);
                   ++run.resolutions;
                   const SimTime now = run.sim->Now();
                   if (now > run.last_done) {
                     run.last_done = now;
                     run.busy_at_last_done =
                         run.sim->fabric().node(1).cpu().BusyTime();
                   }
                 });
  }
  ScheduleNext(run, c);
}

void ScheduleNext(KvRun& run, Client* c) {
  if (c->remaining == 0) return;
  exs::Simulation& sim = *run.sim;
  const SimTime due = sim.Now() + c->arrivals.Next(c->arrival_rng);
  sim.scheduler().ScheduleAt(due, [&run, c, due] { Arrive(run, c, due); });
}

/// Destroys the repetition in ext_openloop's order; returns host seconds.
double Teardown(KvRun& run) {
  const std::int64_t start = HostNowNs();
  Scope s(run.tracer, "teardown", "teardown");
  run.clients.clear();
  run.server.reset();
  run.g1.reset();
  run.g0.reset();
  run.sim.reset();
  return SecondsSince(start);
}

}  // namespace

double KvBaseRate() { return 1e12 / static_cast<double>(kAggregateGap); }

Rep RunKv(const KvSpec& spec, std::uint64_t seed, const RepOptions& options) {
  Tracer* const tracer = options.tracer;
  Rep rep;
  KvRun run;
  run.tracer = tracer;

  // ---- setup: construction + warm-up Run() ------------------------------
  const double heap_before = HeapInUseKb();
  const std::int64_t setup_start = HostNowNs();
  {
    Scope s(tracer, "simnet", "sim.construct");
    run.sim = std::make_unique<exs::Simulation>(
        exs::simnet::HardwareProfile::FdrInfiniBand().WithBusyPolling(), seed,
        /*carry_payload=*/true);  // the frame decoders read real bytes
    if (tracer) run.sim->EnableChunkSpans();
  }
  exs::Simulation& sim = *run.sim;
  {
    Scope s(tracer, "exs.mux", "mux.construct");
    exs::MuxOptions mopts;
    mopts.width = kPoolWidth;
    run.g0 = std::make_unique<exs::MuxGroup>(sim.device(0), mopts);
    run.g1 = std::make_unique<exs::MuxGroup>(sim.device(1), mopts);
    exs::MuxGroup::Connect(*run.g0, *run.g1);
  }

  // Token-sized rings: per-stream state stays small at many streams.
  exs::StreamOptions sopts;
  sopts.credits = 8;
  sopts.intermediate_buffer_bytes = 2 * exs::kKiB;
  sopts.max_wwi_chunk = 2 * exs::kKiB;

  exs::rpc::KvServerOptions kv_opts;
  kv_opts.slab_slots = 4096;
  kv_opts.recv_chunk_bytes = 512;
  run.server = std::make_unique<exs::rpc::KvServer>(kv_opts);

  exs::rpc::RpcClientOptions copts;
  copts.default_deadline = kDeadline;
  copts.max_outstanding = 16;
  copts.recv_chunk_bytes = 512;
  copts.deliver_values = false;  // timing the responses, not reading them

  exs::loadgen::WorkloadOptions wl;
  wl.key_space = 1024;

  const auto mean_gap = static_cast<SimDuration>(
      static_cast<double>(kAggregateGap) * spec.clients / spec.rate_scale);
  run.clients.reserve(spec.clients);
  run.sockets.reserve(2 * static_cast<std::size_t>(spec.clients));
  for (std::uint32_t c = 0; c < spec.clients; ++c) {
    std::pair<exs::Socket*, exs::Socket*> pair;
    {
      Scope s(tracer, "exs.socket", "socket.create_pair");
      pair = sim.CreateMuxedPair(*run.g0, *run.g1, sopts);
    }
    run.sockets.push_back(pair.first);
    run.sockets.push_back(pair.second);
    {
      Scope s(tracer, "exs.rpc", "kv.attach");
      run.server->Attach(*pair.second);
    }
    std::unique_ptr<exs::rpc::RpcClient> rpc;
    {
      Scope s(tracer, "exs.rpc", "rpc.construct");
      rpc = std::make_unique<exs::rpc::RpcClient>(*pair.first,
                                                  sim.scheduler(), copts);
    }
    const std::uint64_t tag = 0x6f70656e6c6f6f70ULL + c;  // "openloop"
    std::unique_ptr<Client> client;
    {
      Scope s(tracer, "exs.loadgen", "loadgen.construct");
      client = std::make_unique<Client>(
          std::move(rpc),
          exs::loadgen::WorkloadGenerator(
              wl, exs::SplitMix64(seed ^ tag).Next()),
          exs::SplitMix64(seed ^ ~tag).Next(), mean_gap,
          spec.requests_per_client);
    }
    run.clients.push_back(std::move(client));
  }
  // Attaching N connections queues N initial receive posts at t=0; settle
  // that population-sized backlog before the measured phase starts.
  {
    Scope s(tracer, "remainder", "sim.run_warmup");
    sim.Run();
  }
  rep.setup_s = SecondsSince(setup_start);
  rep.heap_setup_kb = HeapInUseKb() - heap_before;
  rep.setup_events = sim.scheduler().ExecutedCount();
  if (options.setup_only) {
    rep.teardown_s = Teardown(run);
    return rep;
  }

  // ---- measured phase ----------------------------------------------------
  const std::int64_t measured_start = HostNowNs();
  const SimTime start = sim.Now();
  const CpuWindow cpu = OpenCpuWindow(sim);
  {
    Scope s(tracer, "bench", "schedule_arrivals");
    for (auto& c : run.clients) ScheduleNext(run, c.get());
  }
  {
    Scope s(tracer, "remainder", "sim.run");
    sim.Run();
  }
  rep.measured_s = SecondsSince(measured_start);
  rep.measured_events = sim.scheduler().ExecutedCount() - rep.setup_events;

  // ---- correctness gate and readings --------------------------------------
  {
    Scope s(tracer, "check", "check");
    if (options.sabotage == Sabotage::kLoseOne) {
      // Forget one answered call: conservation must catch it.
      run.clients.front()->rpc->ledger().outcome.front() =
          static_cast<std::uint8_t>(exs::rpc::Outcome::kPending);
    }
    std::vector<const exs::rpc::RpcLedger*> ledgers;
    std::uint64_t answered = 0, timed_out = 0, refused = 0, lost = 0;
    std::uint64_t shed = 0, stale = 0, response_bytes = 0;
    for (const auto& c : run.clients) {
      const exs::rpc::RpcLedger& l = c->rpc->ledger();
      ledgers.push_back(&l);
      rep.attempted += l.issued();
      answered += l.Count(exs::rpc::Outcome::kAnswered);
      timed_out += l.Count(exs::rpc::Outcome::kTimedOut);
      refused += l.Count(exs::rpc::Outcome::kRefused);
      lost += l.Count(exs::rpc::Outcome::kPending);
      shed += l.shed_local;
      stale += l.stale_responses;
      response_bytes += c->rpc->response_bytes();
      rep.latencies.insert(rep.latencies.end(),
                           c->rpc->answer_latencies().begin(),
                           c->rpc->answer_latencies().end());
      if (c->rpc->framing_failed()) {
        rep.violations.push_back("client frame decoder poisoned");
      }
    }
    rep.completed = answered;
    rep.failed = timed_out + refused + lost;

    for (const std::string& v :
         exs::CheckRpcConservation(ledgers, &run.server->counters())
             .violations) {
      rep.violations.push_back("rpc conservation: " + v);
    }
    for (const std::string& v :
         exs::CheckMuxGroupPair(*run.g0, *run.g1).violations) {
      rep.violations.push_back("mux conservation: " + v);
    }
    if (lost != 0) {
      rep.violations.push_back(std::to_string(lost) + " requests lost");
    }
    const std::uint64_t expected =
        static_cast<std::uint64_t>(spec.clients) * spec.requests_per_client;
    if (rep.attempted != expected || run.resolutions != expected) {
      rep.violations.push_back(
          "expected " + std::to_string(expected) + " calls issued and " +
          "resolved, got " + std::to_string(rep.attempted) + " issued and " +
          std::to_string(run.resolutions) + " resolved");
    }
    for (std::size_t d = 0; d < 2; ++d) {
      if (sim.device(d).QueuePairsCreated() != kPoolWidth) {
        rep.violations.push_back(
            "node " + std::to_string(d) + " created " +
            std::to_string(sim.device(d).QueuePairsCreated()) +
            " queue pairs, expected " + std::to_string(kPoolWidth));
      }
    }
    if (run.max_lateness != 0) {
      rep.violations.push_back("arrival generator ran late");
    }
    if (tracer) {
      for (const std::string& v :
           exs::CheckSpanConservation(*sim.chunk_spans()).violations) {
        rep.violations.push_back("span conservation: " + v);
      }
    }

    Metrics& m = rep.sim;
    const SimDuration span = run.last_done - start;
    m["goodput_mbps"] = span > 0 ? exs::ThroughputMbps(response_bytes, span)
                                 : 0.0;
    ReadSimnetLayer(sim, cpu, run.busy_at_last_done, span, &rep);

    std::vector<const exs::ControlChannel*> slots;
    std::uint64_t slot_credit_messages = 0;
    for (const exs::MuxGroup* g : {run.g0.get(), run.g1.get()}) {
      for (std::size_t i = 0; i < g->width(); ++i) {
        slots.push_back(&g->slot(i));
        slot_credit_messages += g->slot(i).credit_messages_sent();
      }
    }
    ReadVerbsLayer(slots, sim, answered, &m);
    ReadSocketLayers(run.sockets, sim.Now(), answered, slot_credit_messages,
                     &m);
    m["mux.dispatch_rounds"] = static_cast<double>(
        run.g0->stats().dispatch_rounds + run.g1->stats().dispatch_rounds);
    m["mux.dispatch_wakes"] = static_cast<double>(
        run.g0->stats().dispatch_wakes + run.g1->stats().dispatch_wakes);
    m["rpc.timed_out"] = static_cast<double>(timed_out);
    m["rpc.refused"] = static_cast<double>(refused);
    m["rpc.shed_local"] = static_cast<double>(shed);
    m["rpc.stale"] = static_cast<double>(stale);
    m["kv.requests_received"] =
        static_cast<double>(run.server->counters().requests_received);
    m["kv.refused"] = static_cast<double>(run.server->counters().refused);
    if (tracer) ReadSpanStages(*sim.chunk_spans(), &rep.span_stages);
  }

  rep.teardown_s = Teardown(run);
  return rep;
}

}  // namespace perfbench
