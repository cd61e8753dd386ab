// Google-benchmark microbenchmarks of the substrate itself: these measure
// *wall-clock* cost of the simulator and library plumbing (event
// scheduling, CPU resource, verbs data path, a full blast run, a mux
// dispatch round), which is what bounds how large an experiment the
// harness can sweep.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "blast/blast.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "exs/exs.hpp"
#include "exs/mux.hpp"
#include "verbs/queue_pair.hpp"

namespace {

using namespace exs;  // NOLINT

void BM_SchedulerEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    simnet::EventScheduler sched;
    std::uint64_t count = 0;
    for (int i = 0; i < 1000; ++i) {
      sched.ScheduleAt(i, [&count] { ++count; });
    }
    sched.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerEventThroughput);

// Events whose capture is shaped like QueuePair's `[this, peer, pkt]`: a
// shared_ptr plus two words, so scheduling copies a refcounted pointer.
void BM_SchedulerFatCapture(benchmark::State& state) {
  auto pkt = std::make_shared<std::uint64_t>(1);
  for (auto _ : state) {
    simnet::EventScheduler sched;
    std::uint64_t count = 0;
    for (int i = 0; i < 1000; ++i) {
      sched.ScheduleAt(i, [&count, pkt, word = static_cast<std::uint64_t>(i)] {
        count += *pkt + word;
      });
    }
    sched.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerFatCapture);

// Half of the scheduled events are cancelled before they run, the shape
// of coalescing flush timers that a later send usually pre-empts.
void BM_SchedulerCancelHeavy(benchmark::State& state) {
  std::vector<simnet::EventHandle> handles(1000);
  for (auto _ : state) {
    simnet::EventScheduler sched;
    std::uint64_t count = 0;
    for (int i = 0; i < 1000; ++i) {
      handles[i] = sched.ScheduleAt(i, [&count] { ++count; });
    }
    for (int i = 0; i < 1000; i += 2) handles[i].Cancel();
    sched.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerCancelHeavy);

void BM_CpuTaskChain(benchmark::State& state) {
  for (auto _ : state) {
    simnet::EventScheduler sched;
    simnet::Cpu cpu(sched);
    for (int i = 0; i < 1000; ++i) cpu.Submit(10, [] {});
    sched.Run();
    benchmark::DoNotOptimize(cpu.BusyTime());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CpuTaskChain);

// One write of up to 100 bytes and a full drain per iteration: 100 does not
// divide the capacity, so the cursors walk round the ring and wrap.
void BM_RingCursorCycle(benchmark::State& state) {
  RingCursor ring(4096);
  std::uint64_t x = 0;
  for (auto _ : state) {
    std::uint64_t w = std::min<std::uint64_t>(ring.ContiguousWritable(), 100);
    ring.CommitWrite(w);
    std::uint64_t r = ring.ContiguousReadable();
    ring.CommitRead(r);
    x += w + r;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_RingCursorCycle);

void BM_RngExponential(benchmark::State& state) {
  Rng rng(1);
  ExponentialSizeDistribution dist(256.0 * 1024, 4 << 20);
  std::uint64_t x = 0;
  for (auto _ : state) x += dist.Sample(rng);
  benchmark::DoNotOptimize(x);
}
BENCHMARK(BM_RngExponential);

void BM_VerbsMessageRate(benchmark::State& state) {
  const auto payload = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    simnet::Fabric fabric(simnet::HardwareProfile::FdrInfiniBand(), 1);
    verbs::Device d0(fabric, 0, /*carry_payload=*/false);
    verbs::Device d1(fabric, 1, /*carry_payload=*/false);
    auto scq0 = d0.CreateCompletionQueue();
    auto rcq0 = d0.CreateCompletionQueue();
    auto scq1 = d1.CreateCompletionQueue();
    auto rcq1 = d1.CreateCompletionQueue();
    verbs::QueuePair q0(d0, *scq0, *rcq0), q1(d1, *scq1, *rcq1);
    verbs::QueuePair::ConnectPair(q0, q1);
    std::vector<std::uint8_t> buf(payload);
    auto mr0 = d0.RegisterMemory(buf.data(), buf.size());
    auto mr1 = d1.RegisterMemory(buf.data(), buf.size());
    constexpr int kMessages = 256;
    for (int i = 0; i < kMessages; ++i) {
      q1.PostRecv({.wr_id = 0,
                   .sge = {reinterpret_cast<std::uint64_t>(buf.data()),
                           payload, mr1->lkey()}});
    }
    for (int i = 0; i < kMessages; ++i) {
      q0.PostSend({.wr_id = 0,
                   .opcode = verbs::Opcode::kSend,
                   .sge = {reinterpret_cast<std::uint64_t>(buf.data()),
                           payload, mr0->lkey()}});
    }
    fabric.scheduler().Run();
    benchmark::DoNotOptimize(q1.stats().messages_delivered);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_VerbsMessageRate)->Arg(64)->Arg(4096);

void BM_FullBlastRun(benchmark::State& state) {
  for (auto _ : state) {
    blast::BlastConfig c;
    c.message_count = 100;
    c.outstanding_sends = 8;
    c.outstanding_recvs = 8;
    c.carry_payload = false;
    blast::BlastResult r = blast::RunBlast(c);
    benchmark::DoNotOptimize(r.throughput_mbps);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_FullBlastRun);

// One mux dispatch round on a slot carrying `M` attached streams, 8 of
// them parked.  A round walks only the parked streams (the active list),
// so its cost should stay flat as M grows.  Each iteration is one shared
// credit spent and returned, a control message each way, plus the round
// the return triggers on each side.
void BM_MuxDispatchRound(benchmark::State& state) {
  const auto streams = static_cast<std::uint32_t>(state.range(0));
  constexpr std::uint32_t kParked = 8;
  Simulation sim(simnet::HardwareProfile::FdrInfiniBand(), 1);
  MuxOptions opts;
  opts.width = 1;
  MuxGroup g0(sim.device(0), opts);
  MuxGroup g1(sim.device(1), opts);
  MuxGroup::Connect(g0, g1);
  std::vector<std::unique_ptr<MuxStream>> tx, rx;
  for (std::uint32_t id = 0; id < streams; ++id) {
    tx.push_back(g0.AttachStream(id));
    rx.push_back(g1.AttachStream(id));
  }
  wire::ControlMessage msg;
  msg.type = static_cast<std::uint8_t>(wire::ControlType::kAck);
  // Spend node 0's shared credits, then park kParked streams spread over
  // the rotation: a refused CanSend() parks a stream, and these never
  // send again, so every round wakes all of them.
  while (g0.slot(0).CanSend()) tx[0]->SendControl(msg);
  for (std::uint32_t i = 0; i < kParked; ++i) {
    tx[i * (streams / kParked)]->CanSend();
  }
  sim.Run();
  const std::uint64_t wakes_before = g0.stats().dispatch_wakes;
  MuxStream& sender = *tx[1];
  for (auto _ : state) {
    sender.SendControl(msg);
    sim.Run();
    rx[1]->SendControl(msg);  // returns the credit: one round on node 0
    sim.Run();
  }
  const std::uint64_t wakes = g0.stats().dispatch_wakes - wakes_before;
  if (wakes != kParked * static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("a round did not wake exactly the parked streams");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MuxDispatchRound)->Arg(64)->Arg(1024)->Arg(16384)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
