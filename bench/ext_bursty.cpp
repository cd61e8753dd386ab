// Extension (paper §VI: "dynamically changing send and receive message
// sizes and burstiness during a connection"): how the dynamic protocol
// adapts when the workload is not a continuous blast.
//
// Part 1 — bursty traffic: between bursts the receiver drains its buffer
// and resynchronises, so each burst can begin with direct transfers; as
// the idle gap shrinks the connection behaves like a continuous blast and
// settles into whichever mode the outstanding-operation balance dictates.
// Mode switches therefore *increase* with burstiness: that is adaptation,
// not instability.
//
// Part 2 — mid-run message-size shift: the connection starts with small
// messages (where equal outstanding counts favour indirect service) and
// shifts to large ones (whose transmission delay exceeds the ADVERT round
// trip); the dynamic protocol follows the workload across the boundary.
#include <iostream>

#include "support.hpp"

namespace exs::bench {
namespace {

void RunBursts(const Args& args, Report& report) {
  PrintBanner(std::cout, "Ext: bursty traffic",
              "dynamic protocol under on/off bursts (recvs=8, sends=8)",
              args);
  report.Begin({{"burst size", "burst_messages"},
                {"idle gap (us)", "idle_us"},
                {"throughput Mb/s", "mbps"},
                {"direct:total ratio", "direct_ratio"},
                {"mode switches", "mode_switches"}},
               "part", "bursts");
  struct Case {
    std::uint64_t burst;
    double idle_us;
  };
  for (const Case& cs : {Case{0, 0.0}, Case{64, 100.0}, Case{64, 500.0},
                         Case{16, 500.0}, Case{16, 2000.0}, Case{4, 2000.0}}) {
    blast::BlastConfig c = FdrBaseConfig(args);
    // Equal windows: a continuous blast locks into indirect service, so
    // any direct transfers seen here come from per-burst resynchronisation.
    c.outstanding_recvs = 8;
    c.outstanding_sends = 8;
    c.burst_messages = cs.burst;
    c.burst_idle = Microseconds(cs.idle_us);
    blast::BlastSummary s = blast::RunRepeated(c, args.runs);
    report.AddRow(
        {Shown(cs.burst == 0 ? "continuous" : std::to_string(cs.burst),
               cs.burst),
         Fixed(cs.idle_us, 0), Mean(s.throughput_mbps, 0),
         Mean(s.direct_ratio, 2), Mean(s.mode_switches, 1)});
  }
  report.Print();
  std::cout << "\n";
}

void RunSizeShift(const Args& args, Report& report) {
  PrintBanner(std::cout, "Ext: mid-run size shift",
              "small -> large messages at the half-way point (recvs=4, "
              "sends=2)",
              args);
  report.Begin({{"workload", "workload"},
                {"throughput Mb/s", "mbps"},
                {"direct:total ratio", "direct_ratio"},
                {"mode switches", "mode_switches"}},
               "part", "size_shift");
  struct Case {
    const char* name;
    double mean1;
    double mean2;
  };
  for (const Case& cs :
       {Case{"small only (16 KiB mean)", 16.0 * kKiB, 0.0},
        Case{"large only (1 MiB mean)", 1.0 * kMiB, 0.0},
        Case{"small -> large shift", 16.0 * kKiB, 1.0 * kMiB},
        Case{"large -> small shift", 1.0 * kMiB, 16.0 * kKiB}}) {
    blast::BlastConfig c = FdrBaseConfig(args);
    c.outstanding_recvs = 4;
    c.outstanding_sends = 2;
    c.exponential_mean_bytes = cs.mean1;
    c.shifted_mean_bytes = cs.mean2;
    c.shift_at_message = c.message_count / 2;
    blast::BlastSummary s = blast::RunRepeated(c, args.runs);
    report.AddRow({cs.name, Mean(s.throughput_mbps, 0),
                   Mean(s.direct_ratio, 2), Mean(s.mode_switches, 1)});
  }
  report.Print();
}

}  // namespace
}  // namespace exs::bench

int main(int argc, char** argv) {
  using namespace exs::bench;
  Args args = Args::Parse(argc, argv);
  Report report("ext_bursty", args);
  RunBursts(args, report);
  RunSizeShift(args, report);
  report.Write(args.results_json_path);
  return 0;
}
