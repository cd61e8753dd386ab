// Reproduces Fig. 9 of the paper: throughput vs. number of simultaneous
// outstanding operations on FDR InfiniBand, for the direct-only, dynamic,
// and indirect-only protocols.  Message sizes are random from a truncated
// exponential distribution (max 4 MiB).
//
//   Fig. 9a — outstanding sends == outstanding receives
//   Fig. 9b — outstanding sends == outstanding receives / 2
//
// Paper shape: direct-only 35-44 Gb/s rising with outstanding ops;
// indirect-only 20-27 Gb/s (memcpy-bound); dynamic tracks indirect-only
// when the counts are equal and direct-only when receives are doubled,
// with one anomalous point at (receives=4, sends=2).
#include <iostream>

#include "support.hpp"

namespace exs::bench {
namespace {

void RunPart(const Args& args, Report& report, const std::string& part,
             const std::string& description, bool halve_sends) {
  PrintBanner(std::cout, "Fig " + part, description, args);
  report.Begin({{"outstanding recvs", "recvs"},
                {"outstanding sends", "sends"},
                {"direct-only Mb/s", "direct_mbps"},
                {"dynamic Mb/s", "dynamic_mbps"},
                {"indirect-only Mb/s", "indirect_mbps"}},
               "part", part);
  // --quick keeps the sweep's endpoints and midpoint; the full run covers
  // every doubling.
  const std::vector<std::uint32_t> sweep =
      args.quick ? std::vector<std::uint32_t>{1, 4, 16} : kOutstandingSweep;
  for (std::uint32_t k : sweep) {
    std::uint32_t sends = halve_sends ? k / 2 : k;
    if (sends == 0) continue;
    std::vector<Cell> row = {k, sends};
    for (ProtocolMode mode :
         {ProtocolMode::kDirectOnly, ProtocolMode::kDynamic,
          ProtocolMode::kIndirectOnly}) {
      blast::BlastConfig c = FdrBaseConfig(args);
      c.outstanding_recvs = k;
      c.outstanding_sends = sends;
      c.stream.mode = mode;
      blast::BlastSummary s = blast::RunRepeated(c, args.runs);
      row.push_back(Mean(s.throughput_mbps, 0));
    }
    report.AddRow(std::move(row));
  }
  report.Print();
  std::cout << "\n";
}

}  // namespace
}  // namespace exs::bench

int main(int argc, char** argv) {
  using namespace exs::bench;
  Args args = Args::Parse(argc, argv);
  Report report("fig09", args);
  RunPart(args, report, "9a",
          "throughput vs outstanding ops (sends == recvs), FDR InfiniBand",
          /*halve_sends=*/false);
  RunPart(args, report, "9b",
          "throughput vs outstanding ops (sends == recvs/2), FDR InfiniBand",
          /*halve_sends=*/true);
  report.Write(args.results_json_path);
  return 0;
}
