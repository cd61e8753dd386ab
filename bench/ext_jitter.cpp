// Extension (paper §VI: "use our network emulator to set a jitter function
// ... to see the effect of jitter on our implementation"): throughput over
// the 48 ms RTT emulated path as per-message delay jitter grows.
//
// Expected shape: because the modelled transport is reliable and in-order,
// jitter mostly *defers* deliveries (a delayed message holds back everyone
// behind it — head-of-line ordering), so throughput degrades gently with
// the jitter magnitude for all three protocols, and the dynamic protocol
// continues to track the better baseline.
#include <iostream>

#include "support.hpp"

namespace exs::bench {
namespace {

void Run(const Args& args, Report& report) {
  PrintBanner(std::cout, "Ext: jitter",
              "throughput vs emulator jitter, 10GbE RoCE + 48 ms RTT", args);
  report.Begin({{"jitter (ms)", "jitter_ms"},
                {"indirect-only Mb/s", "indirect_mbps"},
                {"dynamic Mb/s", "dynamic_mbps"},
                {"direct-only Mb/s", "direct_mbps"}});
  for (double jitter_ms : {0.0, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    std::vector<Cell> row = {Fixed(jitter_ms, 1)};
    for (ProtocolMode mode :
         {ProtocolMode::kIndirectOnly, ProtocolMode::kDynamic,
          ProtocolMode::kDirectOnly}) {
      blast::BlastConfig c = WanBaseConfig(args);
      c.profile = simnet::HardwareProfile::RoCE10GWithDelay(
          Milliseconds(24), Milliseconds(jitter_ms));
      c.outstanding_recvs = 16;
      c.outstanding_sends = 16;
      c.stream.mode = mode;
      c.message_count = std::min<std::uint64_t>(args.messages, 200);
      blast::BlastSummary s = blast::RunRepeated(c, args.runs);
      row.push_back(Mean(s.throughput_mbps, 0));
    }
    report.AddRow(std::move(row));
  }
  report.Print();
}

}  // namespace
}  // namespace exs::bench

int main(int argc, char** argv) {
  using namespace exs::bench;
  Args args = Args::Parse(argc, argv);
  Report report("ext_jitter", args);
  Run(args, report);
  report.Write(args.results_json_path);
  return 0;
}
