// Ablation: native RDMA WRITE WITH IMM vs. the legacy-iWARP emulation
// (RDMA WRITE + trailing SEND, §II-B).
//
// Finding: blast *throughput* is essentially unchanged — per-message cost
// is dominated by event-notification latency, which the extra SEND hides
// behind — so supporting legacy iWARP is nearly free for bulk streams.
// The cost is visible where it belongs: every transfer puts one extra
// message on the wire, and ping-pong latency pays the extra work-request
// and delivery overheads on every hop.
#include <iostream>
#include <vector>

#include "support.hpp"

namespace exs::bench {
namespace {

double WireMessagesPerTransfer(const simnet::HardwareProfile& profile) {
  Simulation sim(profile, 1, /*carry_payload=*/false);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream);
  std::vector<std::uint8_t> out(4096), in(4096);
  client->RegisterMemory(out.data(), out.size());
  server->RegisterMemory(in.data(), in.size());
  constexpr int kTransfers = 64;
  std::uint64_t before = 0;
  int posted = 0;
  server->events().SetHandler([&, server = server](const Event&) {
    server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  });
  client->events().SetHandler([&, client = client](const Event&) {
    if (++posted < kTransfers) client->Send(out.data(), out.size());
  });
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim.RunFor(Microseconds(50));
  before = sim.fabric().channel_from(0).MessagesCarried();
  client->Send(out.data(), out.size());
  sim.Run();
  std::uint64_t carried =
      sim.fabric().channel_from(0).MessagesCarried() - before;
  return static_cast<double>(carried) / kTransfers;
}

void Run(const Args& args, Report& report) {
  PrintBanner(std::cout, "Ablation: WWI emulation",
              "native WRITE-WITH-IMM vs RDMA WRITE + SEND (legacy iWARP)",
              args);
  const auto native = simnet::HardwareProfile::RoCE10G();
  const auto emulated = simnet::HardwareProfile::Iwarp10G();

  const double native_wire = WireMessagesPerTransfer(native);
  const double emulated_wire = WireMessagesPerTransfer(emulated);
  report.Set("native_wire_messages_per_transfer", native_wire);
  report.Set("emulated_wire_messages_per_transfer", emulated_wire);
  std::cout << "wire messages per direct transfer: native "
            << FormatDouble(native_wire, 2) << ", emulated "
            << FormatDouble(emulated_wire, 2) << "\n\n";

  const int iterations = args.quick ? 50 : 200;
  report.Begin({{"message size", "size"},
                {"native RTT us", "native_rtt_us"},
                {"emulated RTT us", "emulated_rtt_us"},
                {"blast native Mb/s", "native_mbps"},
                {"blast emulated Mb/s", "emulated_mbps"}});
  for (std::uint64_t size : {512ull, 4ull * kKiB, 64ull * kKiB,
                             512ull * kKiB}) {
    RunningStats nat, emu;
    for (int r = 0; r < args.runs; ++r) {
      nat.Add(PingPongRttUs(native, StreamOptions{}, size,
                            iterations, 100 + r));
      emu.Add(PingPongRttUs(emulated, StreamOptions{}, size,
                            iterations, 100 + r));
    }
    std::vector<Cell> row = {Shown(SizeName(size), size),
                             Fixed(nat.Mean(), 2), Fixed(emu.Mean(), 2)};
    for (const auto& profile : {native, emulated}) {
      blast::BlastConfig c = FdrBaseConfig(args);
      c.profile = profile;
      c.outstanding_recvs = 16;
      c.outstanding_sends = 8;
      c.fixed_message_bytes = size;
      c.recv_buffer_bytes = size;
      blast::BlastSummary s = blast::RunRepeated(c, args.runs);
      row.push_back(Fixed(s.throughput_mbps.mean, 0));
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
  Report report("abl_wwi_emulation", args);
  Run(args, report);
  report.Write(args.results_json_path);
  return 0;
}
