// stream_bursty: one dedicated-QP dynamic stream driven the way
// src/blast drives it.  The driver is written out here, not called through
// blast::RunBlast, because the benchmark has to time setup apart from the
// measured phase, read the sockets' counters and record spans; the traced
// repetition checks it still agrees with RunBlast number for number.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "blast/blast.hpp"
#include "common/rng.hpp"
#include "common/spans.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using exs::SimDuration;
using exs::SimTime;

constexpr std::uint32_t kOutstandingSends = 8;
constexpr std::uint32_t kOutstandingRecvs = 8;
constexpr double kMeanBytes = 256.0 * exs::kKiB;
constexpr std::uint64_t kMaxBytes = 4 * exs::kMiB;
constexpr std::uint64_t kRecvBufferBytes = 4 * exs::kMiB;
/// Each burst opens in a direct phase and flips to indirect once the
/// sender outruns the posted receives; the idle gap lets the receiver
/// re-advertise, so the switch repeats every burst.  A continuous blast
/// would lock into indirect after one switch.
constexpr std::uint64_t kBurstMessages = 16;
constexpr SimDuration kBurstIdle = exs::Milliseconds(2);
/// blast's head start: the server's first ADVERTs reach the client before
/// its first send, so the stream opens in a direct phase.
constexpr SimDuration kClientStartDelay = exs::Microseconds(50);

/// Payload pattern of the payload-verifying repetition: byte `o` of the stream is
/// byte (o % 8) of a hash of (o / 8, seed).  Word-at-a-time, so carrying
/// and verifying tens of GB of payload stays affordable.
std::uint64_t PatternWord(std::uint64_t index, std::uint64_t seed) {
  return exs::SplitMix64(index ^ seed).Next();
}

std::uint8_t PatternByte(std::uint64_t offset, std::uint64_t seed) {
  return static_cast<std::uint8_t>(PatternWord(offset >> 3, seed) >>
                                   ((offset & 7) * 8));
}

void FillPattern(std::uint8_t* p, std::uint64_t len, std::uint64_t offset,
                 std::uint64_t seed) {
  std::uint64_t i = 0;
  for (; i < len && ((offset + i) & 7) != 0; ++i) {
    p[i] = PatternByte(offset + i, seed);
  }
  for (; i + 8 <= len; i += 8) {
    const std::uint64_t w = PatternWord((offset + i) >> 3, seed);
    std::memcpy(p + i, &w, 8);
  }
  for (; i < len; ++i) p[i] = PatternByte(offset + i, seed);
}

bool VerifyPattern(const std::uint8_t* p, std::uint64_t len,
                   std::uint64_t offset, std::uint64_t seed) {
  std::uint64_t i = 0;
  for (; i < len && ((offset + i) & 7) != 0; ++i) {
    if (p[i] != PatternByte(offset + i, seed)) return false;
  }
  for (; i + 8 <= len; i += 8) {
    const std::uint64_t w = PatternWord((offset + i) >> 3, seed);
    if (std::memcmp(p + i, &w, 8) != 0) return false;
  }
  for (; i < len; ++i) {
    if (p[i] != PatternByte(offset + i, seed)) return false;
  }
  return true;
}

/// Client and server state machines, reacting to completion events the
/// way blast's BlastRun does (same posting order, so the same events).
struct StreamRun {
  StreamRun(const StreamSpec& spec, std::uint64_t seed, Tracer* tracer,
            bool verify)
      : spec(spec), seed(seed), tracer(tracer), verify(verify) {}

  const StreamSpec& spec;
  std::uint64_t seed;
  Tracer* tracer;
  bool verify;

  std::unique_ptr<exs::Simulation> sim;
  exs::Socket* client = nullptr;
  exs::Socket* server = nullptr;

  std::vector<std::uint64_t> sizes;
  std::vector<std::uint64_t> ends;  ///< stream offset after each message
  std::vector<SimTime> posted_at;
  std::uint64_t total_bytes = 0;
  std::uint64_t max_size = 0;
  std::vector<std::uint8_t> send_slab;
  std::vector<std::uint8_t> recv_slab;
  std::vector<std::uint32_t> free_send_buffers;
  std::unordered_map<std::uint64_t, std::uint32_t> send_buffer_of;
  std::unordered_map<std::uint64_t, std::uint32_t> recv_buffer_of;

  std::uint64_t next_message = 0;
  std::uint64_t delivered = 0;  ///< messages whose last byte arrived
  std::uint64_t burst_remaining = kBurstMessages;
  bool burst_resume_scheduled = false;
  std::uint64_t send_offset = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bad_events = 0;
  bool started = false;
  SimTime start_time = 0;
  SimTime end_time = 0;
  CpuWindow cpu;
  SimDuration receiver_busy_end = 0;
  std::vector<SimDuration> latencies;

  /// Destroys the simulation and the buffers; returns host seconds.
  double Teardown() {
    const std::int64_t start = HostNowNs();
    Scope s(tracer, "teardown", "teardown");
    sim.reset();
    std::vector<std::uint8_t>().swap(send_slab);
    std::vector<std::uint8_t>().swap(recv_slab);
    return SecondsSince(start);
  }

  void GenerateSizes() {
    exs::Rng rng(seed * 0x51ed2701u + 17);  // blast's size stream
    const exs::ExponentialSizeDistribution dist(kMeanBytes, kMaxBytes);
    sizes.reserve(spec.messages);
    ends.reserve(spec.messages);
    for (std::uint64_t i = 0; i < spec.messages; ++i) {
      sizes.push_back(dist.Sample(rng));
      total_bytes += sizes.back();
      ends.push_back(total_bytes);
      max_size = std::max(max_size, sizes.back());
    }
    posted_at.assign(spec.messages, 0);
  }

  void AllocateBuffers() {
    send_slab.resize(kOutstandingSends * max_size);
    recv_slab.resize(kOutstandingRecvs * kRecvBufferBytes);
    Scope s(tracer, "exs.socket", "socket.register_memory");
    client->RegisterMemory(send_slab.data(), send_slab.size());
    server->RegisterMemory(recv_slab.data(), recv_slab.size());
    for (std::uint32_t i = 0; i < kOutstandingSends; ++i) {
      free_send_buffers.push_back(i);
    }
  }

  std::uint8_t* RecvBuffer(std::uint32_t i) {
    return recv_slab.data() + static_cast<std::size_t>(i) * kRecvBufferBytes;
  }

  void PostRecv(std::uint32_t buffer) {
    Scope s(tracer, "exs.stream", "stream.recv");
    recv_buffer_of[server->Recv(RecvBuffer(buffer), kRecvBufferBytes)] =
        buffer;
  }

  void StartClient() {
    started = true;
    start_time = sim->Now();
    cpu = OpenCpuWindow(*sim);
    const auto initial = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kOutstandingSends, spec.messages));
    for (std::uint32_t i = 0; i < initial; ++i) PostNextSend();
  }

  void PostNextSend() {
    if (next_message >= spec.messages) return;
    if (burst_remaining == 0) {
      if (!burst_resume_scheduled) {
        burst_resume_scheduled = true;
        sim->scheduler().ScheduleAfter(kBurstIdle, [this] {
          burst_resume_scheduled = false;
          burst_remaining = kBurstMessages;
          const auto window = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(free_send_buffers.size(),
                                      spec.messages - next_message));
          for (std::uint32_t i = 0; i < window; ++i) PostNextSend();
        });
      }
      return;
    }
    --burst_remaining;
    const std::uint32_t buf = free_send_buffers.back();
    free_send_buffers.pop_back();
    const std::uint64_t size = sizes[next_message];
    std::uint8_t* mem = send_slab.data() + buf * max_size;
    if (verify) FillPattern(mem, size, send_offset, seed);
    send_offset += size;
    posted_at[next_message] = sim->Now();
    ++next_message;
    Scope s(tracer, "exs.stream", "stream.send", next_message);
    send_buffer_of[client->Send(mem, size)] = buf;
  }

  void OnClientEvent(const exs::Event& ev) {
    Scope s(tracer, "bench", "client_event");
    const auto it = send_buffer_of.find(ev.id);
    if (ev.type != exs::EventType::kSendComplete ||
        it == send_buffer_of.end()) {
      ++bad_events;  // blast's driver would abort here
      return;
    }
    free_send_buffers.push_back(it->second);
    send_buffer_of.erase(it);
    PostNextSend();
  }

  void OnServerEvent(const exs::Event& ev) {
    Scope s(tracer, "bench", "server_event");
    const auto it = recv_buffer_of.find(ev.id);
    if (ev.type != exs::EventType::kRecvComplete ||
        it == recv_buffer_of.end()) {
      ++bad_events;
      return;
    }
    const std::uint32_t buf = it->second;
    recv_buffer_of.erase(it);
    if (verify &&
        !VerifyPattern(RecvBuffer(buf), ev.bytes, bytes_received, seed)) {
      ++bad_events;
    }
    bytes_received += ev.bytes;
    const SimTime now = sim->Now();
    while (delivered < next_message && ends[delivered] <= bytes_received) {
      latencies.push_back(now - posted_at[delivered]);
      ++delivered;
    }
    if (bytes_received >= total_bytes) {
      end_time = now;
      receiver_busy_end = sim->fabric().node(1).cpu().BusyTime();
      return;  // done: stop reposting
    }
    PostRecv(buf);
  }
};

exs::blast::BlastConfig BlastConfigFor(const StreamSpec& spec,
                                       std::uint64_t seed) {
  exs::blast::BlastConfig c;
  c.profile = exs::simnet::HardwareProfile::FdrInfiniBand();
  c.outstanding_sends = kOutstandingSends;
  c.outstanding_recvs = kOutstandingRecvs;
  c.message_count = spec.messages;
  c.exponential_mean_bytes = kMeanBytes;
  c.max_message_bytes = kMaxBytes;
  c.recv_buffer_bytes = kRecvBufferBytes;
  c.burst_messages = kBurstMessages;
  c.burst_idle = kBurstIdle;
  c.client_start_delay = kClientStartDelay;
  c.seed = seed;
  c.carry_payload = false;
  return c;
}

}  // namespace

Rep RunStream(const StreamSpec& spec, std::uint64_t seed,
              const RepOptions& options) {
  Tracer* const tracer = options.tracer;
  Rep rep;
  StreamRun run(spec, seed, tracer, options.verify_payload);

  // ---- setup: construction up to the client's first send -----------------
  const double heap_before = HeapInUseKb();
  const std::int64_t setup_start = HostNowNs();
  {
    Scope s(tracer, "simnet", "sim.construct");
    run.sim = std::make_unique<exs::Simulation>(
        exs::blast::BlastConfig{}.profile, seed, /*carry_payload=*/run.verify);
    if (tracer) run.sim->EnableChunkSpans();
  }
  exs::Simulation& sim = *run.sim;
  {
    Scope s(tracer, "exs.socket", "socket.create_pair");
    std::tie(run.client, run.server) =
        sim.CreateConnectedPair(exs::SocketType::kStream);
  }
  run.GenerateSizes();
  run.AllocateBuffers();
  run.server->events().SetHandler(
      [&run](const exs::Event& ev) { run.OnServerEvent(ev); });
  run.client->events().SetHandler(
      [&run](const exs::Event& ev) { run.OnClientEvent(ev); });
  sim.scheduler().ScheduleAt(0, [&run] {
    for (std::uint32_t i = 0; i < kOutstandingRecvs; ++i) run.PostRecv(i);
  });
  sim.scheduler().ScheduleAfter(kClientStartDelay,
                                [&run] { run.StartClient(); });
  {
    Scope s(tracer, "remainder", "sim.run_warmup");
    sim.RunUntil([&run] { return run.started; });
  }
  rep.setup_s = SecondsSince(setup_start);
  rep.heap_setup_kb = HeapInUseKb() - heap_before;
  rep.setup_events = sim.scheduler().ExecutedCount();
  if (options.setup_only) {
    rep.teardown_s = run.Teardown();
    return rep;
  }

  // ---- measured phase ----------------------------------------------------
  const std::int64_t measured_start = HostNowNs();
  {
    Scope s(tracer, "remainder", "sim.run");
    sim.Run();
  }
  rep.measured_s = SecondsSince(measured_start);
  rep.measured_events = sim.scheduler().ExecutedCount() - rep.setup_events;

  // ---- correctness gate and readings --------------------------------------
  {
    Scope s(tracer, "check", "check");
    std::uint64_t delivered_bytes = run.bytes_received;
    std::uint64_t delivered = run.delivered;
    if (options.sabotage == Sabotage::kLoseOne && delivered != 0) {
      // Drop the last message from the tally: the gate must notice.
      delivered_bytes -= run.sizes[delivered - 1];
      --delivered;
    }
    rep.attempted = spec.messages;
    rep.completed = delivered;
    rep.failed = spec.messages - delivered;
    rep.latencies = std::move(run.latencies);
    if (delivered_bytes != run.total_bytes || delivered != spec.messages) {
      rep.violations.push_back(
          "delivered " + std::to_string(delivered_bytes) + " of " +
          std::to_string(run.total_bytes) + " bytes (" +
          std::to_string(delivered) + " of " +
          std::to_string(spec.messages) + " messages)");
    }
    if (run.bad_events != 0) {
      rep.violations.push_back(
          std::to_string(run.bad_events) +
          " completions were unexpected or failed payload verification");
    }
    if (sim.device(0).QueuePairsCreated() != 1) {
      rep.violations.push_back("expected one dedicated queue pair");
    }
    if (tracer) {
      for (const std::string& v :
           exs::CheckSpanConservation(*sim.chunk_spans()).violations) {
        rep.violations.push_back("span conservation: " + v);
      }
    }

    Metrics& m = rep.sim;
    const SimDuration elapsed = run.end_time - run.start_time;
    m["goodput_mbps"] = exs::ThroughputMbps(run.bytes_received, elapsed);
    ReadSimnetLayer(sim, run.cpu, run.receiver_busy_end, elapsed, &rep);
    ReadVerbsLayer({&run.client->channel(), &run.server->channel()}, sim,
                   spec.messages, &m);
    ReadSocketLayers({run.client, run.server}, sim.Now(), spec.messages,
                     /*shared_credit_messages=*/0, &m);
    m["stream.elapsed_s"] = exs::ToSeconds(elapsed);
    if (tracer) ReadSpanStages(*sim.chunk_spans(), &rep.span_stages);
  }

  rep.teardown_s = run.Teardown();
  return rep;
}

std::vector<std::string> CrossCheckWithBlast(const StreamSpec& spec,
                                             std::uint64_t seed,
                                             const Rep& rep, Tracer* tracer) {
  exs::blast::BlastResult b;
  {
    Scope s(tracer, "blast", "blast.run");
    b = exs::blast::RunBlast(BlastConfigFor(spec, seed));
  }
  const Metrics& m = rep.sim;
  std::vector<std::string> diffs;
  auto expect = [&diffs](const char* what, double ours, double theirs) {
    if (std::abs(ours - theirs) > 1e-9 * std::max(1.0, std::abs(theirs))) {
      diffs.push_back(std::string(what) + ": benchmark " +
                      std::to_string(ours) + " vs blast " +
                      std::to_string(theirs));
    }
  };
  expect("goodput_mbps", m.at("goodput_mbps"), b.throughput_mbps);
  expect("rx_cpu_pct", m.at("rx_cpu_pct"), b.receiver_cpu_percent);
  expect("elapsed_s", m.at("stream.elapsed_s"), b.elapsed_seconds);
  expect("direct_ratio", m.at("stream.direct_ratio"), b.direct_ratio);
  expect("mode_switches", m.at("stream.mode_switches"),
         static_cast<double>(b.mode_switches));
  expect("messages", static_cast<double>(rep.completed),
         static_cast<double>(b.messages_sent));
  return diffs;
}

}  // namespace perfbench
