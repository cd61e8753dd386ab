// Ablation: ACK batching.  The receiver returns freed buffer space with
// periodic ACKs (Fig. 5 line 2); the threshold trades control-message
// volume against how quickly the sender's b_s view recovers.
//
// Expected shape: with a generous buffer the threshold hardly matters; as
// the threshold approaches the buffer size, the sender stalls in long
// gulps waiting for one big ACK and throughput collapses — worst with a
// small buffer, where fine-grained ACKs are essential.
#include <iostream>

#include "support.hpp"

namespace exs::bench {
namespace {

void Run(const Args& args, Report& report) {
  PrintBanner(std::cout, "Ablation: ACK threshold",
              "indirect-only throughput vs ACK batching threshold", args);
  report.Begin({{"ack threshold", "threshold_bytes"},
                {"1 MiB buffer Mb/s", "buffer_1mib_mbps"},
                {"8 MiB buffer Mb/s", "buffer_8mib_mbps"},
                {"acks per MiB (1 MiB buffer)", "acks_per_mib"}});
  for (std::uint64_t thresh :
       {16 * kKiB, 64 * kKiB, 256 * kKiB, 512 * kKiB, 1 * kMiB}) {
    std::vector<Cell> row = {Shown(SizeName(thresh), thresh)};
    double acks_per_mib = 0.0;
    for (std::uint64_t buf : {1 * kMiB, 8 * kMiB}) {
      blast::BlastConfig c = FdrBaseConfig(args);
      c.outstanding_recvs = 16;
      c.outstanding_sends = 16;
      c.stream.mode = ProtocolMode::kIndirectOnly;
      c.stream.intermediate_buffer_bytes = buf;
      c.stream.ack_threshold_bytes = thresh;
      blast::BlastSummary s = blast::RunRepeated(c, args.runs);
      row.push_back(Mean(s.throughput_mbps, 0));
      if (buf == 1 * kMiB) {
        double total_acks = 0, total_bytes = 0;
        for (const auto& r : s.runs) {
          total_acks += static_cast<double>(r.server_stats.acks_sent);
          total_bytes += static_cast<double>(r.bytes_transferred);
        }
        acks_per_mib = total_acks / (total_bytes / static_cast<double>(kMiB));
      }
    }
    row.push_back(Fixed(acks_per_mib, 2));
    report.AddRow(std::move(row));
  }
  report.Print();
}

}  // namespace
}  // namespace exs::bench

int main(int argc, char** argv) {
  using namespace exs::bench;
  Args args = Args::Parse(argc, argv);
  Report report("abl_ack_threshold", args);
  Run(args, report);
  report.Write(args.results_json_path);
  return 0;
}
