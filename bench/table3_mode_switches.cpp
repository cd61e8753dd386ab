// Reproduces Table III of the paper: for every Fig. 9 configuration of the
// dynamic protocol, the average number of direct/indirect mode switches
// and the ratio of direct transfers to total transfers.
//
// Paper shape: with equal outstanding counts the connection flips to
// indirect service once, almost immediately (switch count ~1, ratio well
// under 0.1, except many switches at 1/1); with doubled receives it stays
// fully direct (ratio ~1) except the anomalous (4,2) point, whose ratio is
// low with a confidence interval nearly as large as its mean.
#include <iostream>

#include "support.hpp"

namespace exs::bench {
namespace {

void Run(const Args& args, Report& report) {
  PrintBanner(std::cout, "Table III",
              "dynamic-protocol mode switches and direct:total ratio", args);
  report.Begin({{"outstanding recvs", "recvs"},
                {"outstanding sends", "sends"},
                {"mode switches", "mode_switches"},
                {"direct:total ratio", "direct_ratio"}});
  auto add_case = [&](std::uint32_t recvs, std::uint32_t sends) {
    blast::BlastConfig c = FdrBaseConfig(args);
    c.outstanding_recvs = recvs;
    c.outstanding_sends = sends;
    blast::BlastSummary s = blast::RunRepeated(c, args.runs);
    report.AddRow({recvs, sends, Mean(s.mode_switches, 1),
                   Mean(s.direct_ratio, 2)});
  };
  // --quick keeps the sweep's endpoints and midpoint.
  const std::vector<std::uint32_t> sweep =
      args.quick ? std::vector<std::uint32_t>{1, 4, 16} : kOutstandingSweep;
  for (std::uint32_t k : sweep) add_case(k, k);
  for (std::uint32_t k : sweep) {
    if (k >= 2) add_case(k, k / 2);
  }
  report.Print();
}

}  // namespace
}  // namespace exs::bench

int main(int argc, char** argv) {
  using namespace exs::bench;
  Args args = Args::Parse(argc, argv);
  Report report("table3", args);
  Run(args, report);
  report.Write(args.results_json_path);
  return 0;
}
