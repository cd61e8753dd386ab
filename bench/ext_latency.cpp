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

/// --latency-json: one span-instrumented dynamic-mode session at a
/// representative mid-size point; run_all.sh merges the per-stage
/// breakdown into BENCH_streams.json.
void WriteLatencyJson(const Args& args, int iterations) {
  if (args.latency_json_path.empty()) return;
  constexpr std::uint64_t kSize = 32 * kKiB;
  spans::LatencyReport breakdown;
  PingPongRttUs(simnet::HardwareProfile::FdrInfiniBand(), StreamOptions{},
                kSize, iterations, /*seed=*/1000, &breakdown);
  Report report("ext_latency", args, /*record_runs=*/false);
  report.Set("mode", "dynamic");
  report.Set("message_bytes", kSize);
  report.Set("iterations", iterations);
  report.Set("latency", RawJson(breakdown.ToJson()));
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
      StreamOptions opts;
      opts.mode = mode;
      RunningStats stats;
      for (int r = 0; r < args.runs; ++r) {
        stats.Add(PingPongRttUs(simnet::HardwareProfile::FdrInfiniBand(),
                                opts, size, iterations, 1000 + r));
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
