// Reproduces Fig. 11 of the paper: the dynamic protocol with the number of
// outstanding receive operations held at 32 while the number of
// outstanding sends sweeps 1..32, for four fixed message sizes.
//
//   Fig. 11a — throughput
//   Fig. 11b — ratio of direct transfers to total transfers
//
// Paper shape: throughput increases with message size; above a few
// outstanding sends it is largely flat — except near the marginal message
// size (128 KiB in the paper), where the direct-transfer ratio has very
// high variance and drags throughput with it.
#include <iostream>

#include "support.hpp"

namespace exs::bench {
namespace {

const std::vector<std::uint64_t> kSizes = {512, 8 * kKiB, 128 * kKiB,
                                           2 * kMiB};
const std::vector<std::uint32_t> kSends = {1, 2, 4, 5, 8, 16, 32};

void Run(const Args& args, Report& report) {
  PrintBanner(std::cout, "Fig 11",
              "dynamic protocol vs outstanding sends (recvs fixed at 32)",
              args);
  // --quick samples the shallow, paper-anomaly (5), and deep ends.
  const std::vector<std::uint32_t> send_sweep =
      args.quick ? std::vector<std::uint32_t>{1, 5, 32} : kSends;
  std::vector<std::vector<blast::BlastSummary>> summaries;
  for (std::uint32_t sends : send_sweep) {
    summaries.emplace_back();
    for (std::uint64_t size : kSizes) {
      blast::BlastConfig c = FdrBaseConfig(args);
      c.outstanding_recvs = 32;
      c.outstanding_sends = sends;
      c.fixed_message_bytes = size;
      c.recv_buffer_bytes = size;
      // Keep per-point cost bounded for the big sizes.
      if (size >= 2 * kMiB && c.message_count > 200) c.message_count = 200;
      summaries.back().push_back(blast::RunRepeated(c, args.runs));
    }
  }
  // One table per panel, one column per message size.
  auto panel = [&](const std::string& part, const std::string& title,
                   const std::string& unit, const std::string& key,
                   blast::Metric blast::BlastSummary::*metric, int precision) {
    std::vector<Column> columns = {{"outstanding sends", "sends"}};
    for (std::uint64_t size : kSizes) {
      columns.push_back({SizeName(size) + " " + unit,
                         key + "_" + std::to_string(size)});
    }
    report.Begin(std::move(columns), "part", part);
    for (std::size_t i = 0; i < send_sweep.size(); ++i) {
      std::vector<Cell> row = {send_sweep[i]};
      for (const blast::BlastSummary& s : summaries[i]) {
        row.push_back(Mean(s.*metric, precision));
      }
      report.AddRow(std::move(row));
    }
    std::cout << title;
    report.Print();
  };
  panel("11a", "-- Fig 11a: throughput --\n", "Mb/s", "mbps",
        &blast::BlastSummary::throughput_mbps, 0);
  panel("11b", "\n-- Fig 11b: direct:total transfer ratio --\n", "ratio",
        "direct_ratio", &blast::BlastSummary::direct_ratio, 2);
}

}  // namespace
}  // namespace exs::bench

int main(int argc, char** argv) {
  using namespace exs::bench;
  Args args = Args::Parse(argc, argv);
  Report report("fig11", args);
  Run(args, report);
  report.Write(args.results_json_path);
  return 0;
}
