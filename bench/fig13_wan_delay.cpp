// Reproduces Fig. 13 of the paper: throughput over distance — 10 GbE RoCE
// through a delay emulator set to a 48 ms round trip, equal outstanding
// sends and receives.
//
// Paper shape: over distance all three protocols perform similarly and far
// below the link rate (the round trip dominates); with 4-32 outstanding
// operations the indirect protocol is slightly *faster* than direct-only,
// because buffered transfers avoid waiting a full round trip for each
// ADVERT, and the dynamic protocol adapts to match the better mode.
#include <iostream>

#include "support.hpp"

namespace exs::bench {
namespace {

void Run(const Args& args, Report& report) {
  PrintBanner(
      std::cout, "Fig 13",
      "throughput vs outstanding ops, 10GbE RoCE + 48 ms RTT (sends==recvs)",
      args);
  report.Begin({{"outstanding ops", "ops"},
                {"indirect-only Mb/s", "indirect_mbps"},
                {"dynamic Mb/s", "dynamic_mbps"},
                {"direct-only Mb/s", "direct_mbps"}});
  // --quick keeps the sweep's endpoints and midpoint.
  const std::vector<std::uint32_t> sweep =
      args.quick ? std::vector<std::uint32_t>{1, 4, 16} : kOutstandingSweep;
  for (std::uint32_t k : sweep) {
    std::vector<Cell> row = {k};
    for (ProtocolMode mode :
         {ProtocolMode::kIndirectOnly, ProtocolMode::kDynamic,
          ProtocolMode::kDirectOnly}) {
      blast::BlastConfig c = WanBaseConfig(args);
      c.outstanding_recvs = k;
      c.outstanding_sends = k;
      c.stream.mode = mode;
      // Runs over distance are long in simulated time; keep them bounded.
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
  Report report("fig13", args);
  Run(args, report);
  report.Write(args.results_json_path);
  return 0;
}
