// Extension: small-transfer coalescing (StreamOptions::coalesce).
//
// Small messages are where stream-over-RDMA overheads dominate: every
// send pays a work-request posting, a completion, and an event delivery
// that each dwarf the ~tens of nanoseconds its bytes occupy the wire.
// The coalescing stage merges consecutive small indirect sends into one
// WWI (per-send completions preserved) and the receiver folds pending ACK
// free-counts into outgoing ADVERTs, so the steady-state small-message
// loop pays one posting and one control message where it paid many.
//
// This bench sweeps message size from 64 B to 4 KiB with coalescing off
// and on, on the FDR testbed and over the 48 ms RTT WAN emulation, and
// reports the throughput gain plus how much merging actually happened.
// Past the staging capacity (4 KiB default) the two columns converge by
// construction: sends bigger than the buffer are never staged.
#include <iostream>

#include "support.hpp"

namespace exs::bench {
namespace {

constexpr std::uint64_t kSizes[] = {64, 128, 256, 512, 1024, 2048, 4096};

blast::BlastConfig BaseFor(const std::string& profile, const Args& args) {
  blast::BlastConfig c =
      profile == "wan" ? WanBaseConfig(args) : FdrBaseConfig(args);
  // The small-message regime: a deep send window against a shallower
  // receive window keeps the indirect path busy — the workload the
  // staging buffer targets.
  c.outstanding_sends = 16;
  c.outstanding_recvs = 4;
  return c;
}

double MeanOverRuns(const blast::BlastSummary& s,
                    double (*extract)(const blast::BlastResult&)) {
  if (s.runs.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : s.runs) sum += extract(r);
  return sum / static_cast<double>(s.runs.size());
}

void RunProfile(const std::string& profile, const Args& args,
                Report& report) {
  PrintBanner(std::cout, "Ext: small-transfer coalescing (" + profile + ")",
              "fixed sizes 64 B – 4 KiB, coalescing off vs on (recvs=4, "
              "sends=16)",
              args);
  report.Begin({{"message size", "size"},
                {"off Mb/s", "off_mbps"},
                {"on Mb/s", "on_mbps"},
                {"gain", "gain"},
                {"merged sends/flush", "coalesced_per_flush"},
                {"acks piggybacked", "acks_piggybacked"}},
               "profile", profile);
  // --quick keeps the smallest size, the 256 B point CI gates on, and the
  // staging-capacity boundary where the columns converge.
  const std::vector<std::uint64_t> sizes =
      args.quick ? std::vector<std::uint64_t>{64, 256, 4096}
                 : std::vector<std::uint64_t>(std::begin(kSizes),
                                              std::end(kSizes));
  for (std::uint64_t size : sizes) {
    blast::BlastConfig off = BaseFor(profile, args);
    off.fixed_message_bytes = size;
    blast::BlastConfig on = off;
    on.stream.coalesce.enabled = true;

    blast::BlastSummary off_s = blast::RunRepeated(off, args.runs);
    blast::BlastSummary on_s = blast::RunRepeated(on, args.runs);

    const double off_mbps = off_s.throughput_mbps.mean;
    const double gain =
        off_mbps > 0.0 ? on_s.throughput_mbps.mean / off_mbps : 0.0;
    const double per_flush = MeanOverRuns(on_s, [](const blast::BlastResult& r) {
      return r.client_stats.coalesce_flushes == 0
                 ? 0.0
                 : static_cast<double>(r.client_stats.coalesced_sends) /
                       static_cast<double>(r.client_stats.coalesce_flushes);
    });
    const double piggybacked =
        MeanOverRuns(on_s, [](const blast::BlastResult& r) {
          return static_cast<double>(r.server_stats.acks_piggybacked);
        });
    report.AddRow({Shown(std::to_string(size) + " B", size),
                   Mean(off_s.throughput_mbps, 0),
                   Mean(on_s.throughput_mbps, 0),
                   Fixed(gain, 2, "x"),
                   Fixed(per_flush, 1), Fixed(piggybacked, 0)});
  }
  report.Print();
  std::cout << "\n";
}

}  // namespace
}  // namespace exs::bench

int main(int argc, char** argv) {
  using namespace exs::bench;
  Args args = Args::Parse(argc, argv);
  Report report("ext_coalescing", args);
  RunProfile("fdr", args, report);
  RunProfile("wan", args, report);
  report.Write(args.results_json_path);
  return 0;
}
