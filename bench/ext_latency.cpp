// Extension (paper §VI: "We also plan on performing latency studies"):
// ping-pong round-trip latency vs. message size for the three protocols on
// FDR InfiniBand.
//
// Expected shape: direct transfers carry no copy cost, so direct-only and
// the dynamic protocol (which runs direct here — the echoing receiver
// always has its ADVERT out before the next ping) track each other, while
// indirect-only pays the receiver-side copy on every hop and falls behind
// by a growing margin as messages get larger.
#include <iostream>
#include <vector>

#include "support.hpp"

namespace exs::bench {
namespace {

/// One ping-pong session; returns mean RTT in microseconds.  When
/// `latency_json` is non-null the run is span-instrumented (which cannot
/// perturb timing — the collector schedules nothing) and the per-stage
/// LatencyReport JSON is stored there.
double MeasureRttUs(ProtocolMode mode, std::uint64_t size, int iterations,
                    std::uint64_t seed, std::string* latency_json = nullptr) {
  StreamOptions opts;
  opts.mode = mode;
  Simulation sim(simnet::HardwareProfile::FdrInfiniBand(), seed,
                 /*carry_payload=*/false);
  if (latency_json != nullptr) sim.EnableChunkSpans();
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);

  std::vector<std::uint8_t> ping(size), pong(size), ping_in(size),
      pong_in(size);
  client->RegisterMemory(ping.data(), size);
  client->RegisterMemory(pong_in.data(), size);
  server->RegisterMemory(pong.data(), size);
  server->RegisterMemory(ping_in.data(), size);

  int remaining = iterations;
  SimTime first_send = 0;
  SimTime last_recv = 0;

  // Server: echo every fully-received ping.
  server->events().SetHandler([&, server = server](const Event& ev) {
    if (ev.type != EventType::kRecvComplete) return;
    server->Send(pong.data(), size);
    server->Recv(ping_in.data(), size, RecvFlags{.waitall = true});
  });
  // Client: next ping on every fully-received pong.
  client->events().SetHandler([&, client = client](const Event& ev) {
    if (ev.type != EventType::kRecvComplete) return;
    if (--remaining <= 0) {
      last_recv = sim.Now();
      return;
    }
    client->Recv(pong_in.data(), size, RecvFlags{.waitall = true});
    client->Send(ping.data(), size);
  });

  server->Recv(ping_in.data(), size, RecvFlags{.waitall = true});
  client->Recv(pong_in.data(), size, RecvFlags{.waitall = true});
  sim.RunFor(Microseconds(50));  // let initial ADVERTs settle
  first_send = sim.Now();
  client->Send(ping.data(), size);
  sim.Run();

  if (latency_json != nullptr) {
    *latency_json = sim.chunk_spans()->BuildReport().ToJson();
  }
  return ToMicroseconds(last_recv - first_send) / iterations;
}

/// --latency-json: one span-instrumented dynamic-mode session at a
/// representative mid-size point; run_all.sh merges the per-stage
/// breakdown into BENCH_streams.json.
void WriteLatencyJson(const Args& args, int iterations) {
  if (args.latency_json_path.empty()) return;
  constexpr std::uint64_t kSize = 32 * kKiB;
  std::string breakdown;
  MeasureRttUs(ProtocolMode::kDynamic, kSize, iterations, /*seed=*/1000,
               &breakdown);
  Report report("ext_latency", args, /*record_runs=*/false);
  report.Set("mode", "dynamic");
  report.Set("message_bytes", kSize);
  report.Set("iterations", iterations);
  report.Set("latency", RawJson(breakdown));
  report.Write(args.latency_json_path);
}

void Run(const Args& args) {
  PrintBanner(std::cout, "Ext: latency",
              "ping-pong round-trip time vs message size (§VI future work)",
              args);
  const int iterations = args.quick ? 40 : 200;
  Report report("ext_latency", args, /*record_runs=*/false);
  report.Set("runs", args.runs);
  report.Set("iterations", iterations);
  report.Begin({{"message size", "size"},
                {"direct-only RTT us", "direct_rtt_us"},
                {"dynamic RTT us", "dynamic_rtt_us"},
                {"indirect-only RTT us", "indirect_rtt_us"}});
  for (std::uint64_t size :
       {64ull, 512ull, 4096ull, 32768ull, 262144ull, 1048576ull}) {
    std::vector<Cell> row = {Shown(SizeName(size), size)};
    for (ProtocolMode mode :
         {ProtocolMode::kDirectOnly, ProtocolMode::kDynamic,
          ProtocolMode::kIndirectOnly}) {
      RunningStats stats;
      for (int r = 0; r < args.runs; ++r) {
        stats.Add(MeasureRttUs(mode, size, iterations, 1000 + r));
      }
      blast::Metric m{stats.Mean(), stats.ConfidenceHalfWidth95(),
                      stats.Min(), stats.Max()};
      row.push_back(Mean(m, 1));
    }
    report.AddRow(std::move(row));
  }
  report.Print();
  report.Write(args.results_json_path);
  WriteLatencyJson(args, iterations);
}

}  // namespace
}  // namespace exs::bench

int main(int argc, char** argv) {
  using namespace exs::bench;
  Args args = Args::Parse(argc, argv);
  Run(args);
  return 0;
}
