// Extension: multi-rail striping (StreamOptions::rails).
//
// One stream, N queue pairs.  The shared link serialises bytes no matter
// how many rails carry them, so striping pays off exactly where the
// *per-work-request* costs dominate: the HCA's WR processing pipeline
// (send_wr_overhead, charged FIFO per queue pair) and the per-rail credit
// pool.  This bench drives that regime deliberately — WWI chunks are
// capped at 512 B, modelling a WR-rate-bound NIC — and sweeps message
// size × rails ∈ {1, 2, 4}:
//
//   * FDR: one rail is HCA-bound (~200 ns per WR against ~94 ns of wire
//     time per chunk); four rails overlap the WR overhead and push the
//     link back to being the bottleneck.
//   * WAN (48 ms RTT): one rail's 128-credit pool caps the bytes in
//     flight far below the bandwidth-delay product; each extra rail adds
//     a whole credit pool.
//
// The rails=1 column runs the identical chunked configuration, so the
// comparison isolates the striping mechanism itself.
#include <iostream>

#include "support.hpp"

namespace exs::bench {
namespace {

constexpr std::uint64_t kSizes[] = {4 * 1024, 16 * 1024, 64 * 1024,
                                    256 * 1024};
constexpr std::uint32_t kRails[] = {1, 2, 4};
constexpr std::uint64_t kChunk = 512;
constexpr std::uint32_t kOutstanding = 8;

blast::BlastConfig BaseFor(const std::string& profile, const Args& args,
                           std::uint32_t rails) {
  blast::BlastConfig c =
      profile == "wan" ? WanBaseConfig(args) : FdrBaseConfig(args);
  c.outstanding_sends = kOutstanding;
  c.outstanding_recvs = kOutstanding;
  c.stream.max_wwi_chunk = kChunk;
  c.stream.rails = rails;
  return c;
}

void RunProfile(const std::string& profile, const Args& args,
                Report& report) {
  PrintBanner(std::cout, "Ext: multi-rail striping (" + profile + ")",
              "fixed sizes, 512 B WWI chunks, outstanding=8, "
              "rails 1 vs 2 vs 4 (adaptive scheduler)",
              args);
  report.Begin({{"message size", "size"},
                {"rails=1 Mb/s", "rails1_mbps"},
                {"rails=2 Mb/s", "rails2_mbps"},
                {"rails=4 Mb/s", "rails4_mbps"},
                {"gain x2", "gain2"},
                {"gain x4", "gain4"}},
               "profile", profile);
  // --quick keeps a mid size plus the 64 KiB point CI gates on.
  const std::vector<std::uint64_t> sizes =
      args.quick ? std::vector<std::uint64_t>{16 * 1024, 64 * 1024}
                 : std::vector<std::uint64_t>(std::begin(kSizes),
                                              std::end(kSizes));
  for (std::uint64_t size : sizes) {
    double mbps[3] = {0.0, 0.0, 0.0};  // rails 1, 2, 4
    std::vector<Cell> row = {Shown(SizeName(size), size)};
    for (std::size_t i = 0; i < 3; ++i) {
      blast::BlastConfig cfg = BaseFor(profile, args, kRails[i]);
      cfg.fixed_message_bytes = size;
      blast::BlastSummary s = blast::RunRepeated(cfg, args.runs);
      mbps[i] = s.throughput_mbps.mean;
      row.push_back(Mean(s.throughput_mbps, 0));
    }
    row.push_back(Fixed(mbps[0] > 0.0 ? mbps[1] / mbps[0] : 0.0, 2, "x"));
    row.push_back(Fixed(mbps[0] > 0.0 ? mbps[2] / mbps[0] : 0.0, 2, "x"));
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
  Report report("ext_striping", args);
  report.Set("chunk", kChunk);
  report.Set("outstanding", kOutstanding);
  RunProfile("fdr", args, report);
  RunProfile("wan", args, report);
  report.Write(args.results_json_path);
  return 0;
}
