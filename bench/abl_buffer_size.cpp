// Ablation: how big must the hidden intermediate buffer be?
//
// On the LAN the buffer only needs to cover the copy pipeline, so
// indirect throughput saturates at modest sizes.  Over distance the buffer
// is the indirect path's flow-control window: sustained throughput is
// bounded by buffer_size / RTT until the buffer covers the
// bandwidth-delay product (~60 MB at 10 Gb/s x 48 ms), which is why the
// paper's distance results depend on buffering depth.
#include <iostream>

#include "support.hpp"

namespace exs::bench {
namespace {

void Run(const Args& args, Report& report) {
  PrintBanner(std::cout, "Ablation: intermediate buffer size",
              "indirect-only throughput vs buffer capacity", args);
  report.Begin({{"buffer size", "buffer_bytes"},
                {"FDR LAN Mb/s", "fdr_mbps"},
                {"10GbE + 48 ms RTT Mb/s", "wan_mbps"}});
  for (std::uint64_t buf :
       {256 * kKiB, 1 * kMiB, 4 * kMiB, 8 * kMiB, 16 * kMiB, 64 * kMiB}) {
    std::vector<Cell> row = {Shown(SizeName(buf), buf)};
    for (bool wan : {false, true}) {
      blast::BlastConfig c = wan ? WanBaseConfig(args) : FdrBaseConfig(args);
      c.outstanding_recvs = 16;
      c.outstanding_sends = 16;
      c.stream.mode = ProtocolMode::kIndirectOnly;
      c.stream.intermediate_buffer_bytes = buf;
      if (wan) c.message_count = std::min<std::uint64_t>(args.messages, 150);
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
  Report report("abl_buffer_size", args);
  Run(args, report);
  report.Write(args.results_json_path);
  return 0;
}
