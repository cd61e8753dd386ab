// Ablation: the size of the pre-posted receive pool (§II-B).  Every
// control message and every data chunk consumes one credit, so a small
// pool serialises the pipeline — the prior study the paper builds on
// ("using many simultaneous outstanding operations is essential") shows up
// here directly.  The chunk cap multiplies the pressure: smaller chunks
// mean more credits per message.
#include <iostream>

#include "support.hpp"

namespace exs::bench {
namespace {

void Run(const Args& args, Report& report) {
  PrintBanner(std::cout, "Ablation: credit pool size",
              "dynamic-protocol throughput vs pre-posted receive pool",
              args);
  report.Begin({{"credits", "credits"},
                {"unbounded chunks Mb/s", "unbounded_chunk_mbps"},
                {"64 KiB chunks Mb/s", "chunk_64kib_mbps"}});
  for (std::uint32_t credits : {4u, 8u, 16u, 32u, 64u, 128u}) {
    std::vector<Cell> row = {credits};
    for (std::uint64_t chunk : {std::uint64_t{0}, 64 * kKiB}) {
      blast::BlastConfig c = FdrBaseConfig(args);
      c.outstanding_recvs = 16;
      c.outstanding_sends = 16;
      c.stream.credits = credits;
      c.stream.max_wwi_chunk = chunk;
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
  Report report("abl_credits", args);
  Run(args, report);
  report.Write(args.results_json_path);
  return 0;
}
