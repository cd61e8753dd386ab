// Reproduces Fig. 12 of the paper: the dynamic protocol's throughput and
// direct:total transfer ratio as a function of message size, with 4
// outstanding receives and 2 outstanding sends.
//
// Paper shape: throughput rises with message size toward the link limit
// (with a peak around 2 MiB); the direct ratio is low for small and
// mid-size messages, bottoms out near 32 KiB, then rises — at 512 KiB and
// above every transfer is direct, because a message's transmission delay
// exceeds the ADVERT round trip and the receiver always resupplies
// ADVERTs in time.
#include <iostream>

#include "support.hpp"

namespace exs::bench {
namespace {

const std::vector<std::uint64_t> kSizes = {
    512,        2 * kKiB,   8 * kKiB,  32 * kKiB, 128 * kKiB,
    512 * kKiB, 2 * kMiB,   8 * kMiB,  32 * kMiB, 128 * kMiB};

void Run(const Args& args, Report& report) {
  PrintBanner(std::cout, "Fig 12",
              "dynamic protocol vs message size (recvs=4, sends=2)", args);
  report.Begin({{"message size", "size"},
                {"throughput Mb/s", "mbps"},
                {"direct:total ratio", "direct_ratio"},
                {"mode switches", "mode_switches"}});
  // --quick samples the small / knee / large regimes of the size curve.
  const std::vector<std::uint64_t> sizes =
      args.quick ? std::vector<std::uint64_t>{512, 32 * kKiB, 2 * kMiB}
                 : kSizes;
  for (std::uint64_t size : sizes) {
    blast::BlastConfig c = FdrBaseConfig(args);
    c.outstanding_recvs = 4;
    c.outstanding_sends = 2;
    c.fixed_message_bytes = size;
    c.recv_buffer_bytes = size;
    c.max_message_bytes = size;
    // Bound total bytes per run: huge messages need few repetitions for a
    // stable mean, and 128 MiB x 500 would be wasteful.
    if (size >= 2 * kMiB) {
      c.message_count = std::min<std::uint64_t>(c.message_count, 100);
    }
    if (size >= 32 * kMiB) {
      c.message_count = std::min<std::uint64_t>(c.message_count, 30);
    }
    blast::BlastSummary s = blast::RunRepeated(c, args.runs);
    report.AddRow({Shown(SizeName(size), size), Mean(s.throughput_mbps, 0),
                   Mean(s.direct_ratio, 2), Mean(s.mode_switches, 1)});
  }
  report.Print();
}

}  // namespace
}  // namespace exs::bench

int main(int argc, char** argv) {
  using namespace exs::bench;
  Args args = Args::Parse(argc, argv);
  Report report("fig12", args);
  Run(args, report);
  report.Write(args.results_json_path);
  return 0;
}
