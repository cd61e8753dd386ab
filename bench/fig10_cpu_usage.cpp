// Reproduces Fig. 10 of the paper: receiver CPU usage vs. number of
// simultaneous outstanding operations on FDR InfiniBand.
//
// Paper shape: indirect-only approaches 100% as outstanding operations
// increase (the intermediate-buffer copies saturate the receiver CPU);
// direct-only stays far lower thanks to zero-copy; dynamic matches
// whichever mode it is operating in.
#include <iostream>

#include "support.hpp"

namespace exs::bench {
namespace {

void RunPart(const Args& args, Report& report, const std::string& part,
             const std::string& description, bool halve_sends) {
  PrintBanner(std::cout, "Fig " + part, description, args);
  report.Begin({{"outstanding recvs", "recvs"},
                {"outstanding sends", "sends"},
                {"direct-only CPU%", "direct_cpu_pct"},
                {"dynamic CPU%", "dynamic_cpu_pct"},
                {"indirect-only CPU%", "indirect_cpu_pct"}},
               "part", part);
  // --quick keeps the sweep's endpoints and midpoint.
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
      row.push_back(Mean(s.receiver_cpu_percent, 1));
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
  Report report("fig10", args);
  RunPart(args, report, "10a",
          "receiver CPU usage vs outstanding ops (sends == recvs)",
          /*halve_sends=*/false);
  RunPart(args, report, "10b",
          "receiver CPU usage vs outstanding ops (sends == recvs/2)",
          /*halve_sends=*/true);
  report.Write(args.results_json_path);
  return 0;
}
