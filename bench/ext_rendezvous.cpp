// Extension: why is the paper's protocol sender-driven?
//
// §II-B notes that RDMA READ "works in the opposite direction, but is not
// used in our solution" — without measuring the alternative.  This bench
// does: the read-rendezvous engine (receiver pulls with RDMA READ after a
// source advertisement) against the paper's three protocols.
//
// Expected story: on the LAN, rendezvous is competitive — zero-copy like
// direct, and the sender never stalls like indirect.  Over distance it
// loses badly: every byte pays SRC-ADVERT (half trip) plus a full READ
// round trip before it lands, 3x the wire crossings of a sender-driven
// WRITE — which is precisely why a stream library aimed at RDMA over
// distance chooses WRITE.
#include <iostream>

#include "support.hpp"

namespace exs::bench {
namespace {

void RunPart(const Args& args, Report& report, const std::string& id,
             bool wan) {
  PrintBanner(std::cout, id,
              wan ? "10GbE RoCE + 48 ms RTT, sends == recvs"
                  : "FDR InfiniBand, sends == recvs",
              args);
  report.Begin({{"outstanding ops", "ops"},
                {"direct-only Mb/s", "direct_mbps"},
                {"dynamic Mb/s", "dynamic_mbps"},
                {"indirect-only Mb/s", "indirect_mbps"},
                {"read-rendezvous Mb/s", "rendezvous_mbps"},
                {"rendezvous recv CPU%", "rendezvous_cpu_pct"}},
               "profile", wan ? "wan" : "fdr");
  for (std::uint32_t k : {2u, 8u, 32u}) {
    std::vector<Cell> row = {k};
    double rendezvous_cpu = 0.0;
    for (ProtocolMode mode :
         {ProtocolMode::kDirectOnly, ProtocolMode::kDynamic,
          ProtocolMode::kIndirectOnly, ProtocolMode::kReadRendezvous}) {
      blast::BlastConfig c = wan ? WanBaseConfig(args) : FdrBaseConfig(args);
      c.outstanding_recvs = k;
      c.outstanding_sends = k;
      c.stream.mode = mode;
      if (wan) c.message_count = std::min<std::uint64_t>(args.messages, 150);
      blast::BlastSummary s = blast::RunRepeated(c, args.runs);
      row.push_back(Mean(s.throughput_mbps, 0));
      if (mode == ProtocolMode::kReadRendezvous) {
        rendezvous_cpu = s.receiver_cpu_percent.mean;
      }
    }
    row.push_back(Fixed(rendezvous_cpu, 1));
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
  Report report("ext_rendezvous", args);
  RunPart(args, report, "Ext: read-rendezvous (LAN)", /*wan=*/false);
  RunPart(args, report, "Ext: read-rendezvous (WAN)", /*wan=*/true);
  report.Write(args.results_json_path);
  return 0;
}
