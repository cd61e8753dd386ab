// Ablation: event notification vs. busy polling for completions.
//
// The paper ran everything with event notification, noting that "most
// messages in this study are large enough that there is little advantage
// to busy polling" (§IV-B, citing the authors' programming-decisions
// study).  This ablation quantifies the claim: polling removes the
// wake-up latency (and its jitter) from every completion, which matters
// enormously for small-message latency and for the ADVERT replenishment
// race — and not at all for large-message throughput.  The price, a core
// pinned at 100% per polling thread, is not captured in the CPU% column
// (the spin itself is not modelled as work).
#include <iostream>
#include <vector>

#include "support.hpp"

namespace exs::bench {
namespace {

void Run(const Args& args, Report& report) {
  PrintBanner(std::cout, "Ablation: busy polling",
              "event notification vs busy-polled completions, FDR IB",
              args);
  const auto notified = simnet::HardwareProfile::FdrInfiniBand();
  const auto polled = notified.WithBusyPolling();
  const int iterations = args.quick ? 50 : 200;

  report.Begin({{"message size", "size"},
                {"notify RTT us", "notify_rtt_us"},
                {"poll RTT us", "poll_rtt_us"},
                {"notify blast Mb/s", "notify_mbps"},
                {"poll blast Mb/s", "poll_mbps"},
                {"poll direct ratio", "poll_direct_ratio"}});
  for (std::uint64_t size :
       {512ull, 8ull * kKiB, 128ull * kKiB, 1ull * kMiB}) {
    RunningStats nrtt, prtt;
    for (int r = 0; r < args.runs; ++r) {
      nrtt.Add(PingPongRttUs(notified, StreamOptions{}, size,
                             iterations, 300 + r));
      prtt.Add(PingPongRttUs(polled, StreamOptions{}, size,
                             iterations, 300 + r));
    }
    std::vector<Cell> row = {Shown(SizeName(size), size),
                             Fixed(nrtt.Mean(), 1), Fixed(prtt.Mean(), 1)};
    double poll_ratio = 0;
    for (const auto& profile : {notified, polled}) {
      blast::BlastConfig c = FdrBaseConfig(args);
      c.profile = profile;
      c.outstanding_recvs = 8;
      c.outstanding_sends = 8;  // the equal-window race of Fig. 9a
      c.fixed_message_bytes = size;
      c.recv_buffer_bytes = size;
      blast::BlastSummary s = blast::RunRepeated(c, args.runs);
      row.push_back(Fixed(s.throughput_mbps.mean, 0));
      poll_ratio = s.direct_ratio.mean;
    }
    row.push_back(Fixed(poll_ratio, 2));
    report.AddRow(std::move(row));
  }
  report.Print();
  std::cout << "\n(note: the spin loop's own 100% core burn is the price "
               "and is not shown)\n";
}

}  // namespace
}  // namespace exs::bench

int main(int argc, char** argv) {
  using namespace exs::bench;
  Args args = Args::Parse(argc, argv);
  Report report("ext_busy_poll", args);
  Run(args, report);
  report.Write(args.results_json_path);
  return 0;
}
