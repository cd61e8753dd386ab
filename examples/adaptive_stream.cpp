// Watching the dynamic algorithm adapt.
//
// Drives one stream connection through three workload regimes and prints a
// timeline of the sender's transfer decisions:
//
//   phase A — receiver ahead: receives are posted well before sends, so
//             every transfer is direct (zero-copy into user memory);
//   phase B — sender ahead: sends race ahead of the receiver, the first
//             transfer with no usable ADVERT flips the connection into an
//             indirect phase, and data flows through the hidden buffer;
//   phase C — after an idle gap the receiver drains, resynchronises, and
//             the connection returns to direct service.
//
// This is Fig. 2/3/4/5 of the paper in motion.
#include <cstdio>
#include <vector>

#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"

namespace {

using namespace exs;  // NOLINT

void Report(const char* phase, Socket* client, Socket* server,
            Simulation& sim) {
  const StreamStats& tx = client->stats();
  std::printf(
      "%-46s t=%7.1f us  phase P_s=%llu/P_r=%llu  direct=%llu indirect=%llu "
      "switches=%llu\n",
      phase, ToMicroseconds(sim.Now()),
      static_cast<unsigned long long>(client->stream_tx()->phase()),
      static_cast<unsigned long long>(server->stream_rx()->phase()),
      static_cast<unsigned long long>(tx.direct_transfers),
      static_cast<unsigned long long>(tx.indirect_transfers),
      static_cast<unsigned long long>(tx.mode_switches));
}

}  // namespace

int main() {
  Simulation sim(simnet::HardwareProfile::FdrInfiniBand(), /*seed=*/4);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing();
  server->EnableTracing();

  constexpr std::uint64_t kMsg = 64 * kKiB;
  constexpr int kPerPhase = 6;
  std::vector<std::uint8_t> out(kMsg * kPerPhase * 3), in(out.size());
  client->RegisterMemory(out.data(), out.size());
  server->RegisterMemory(in.data(), in.size());
  std::uint64_t sent = 0, recvd = 0;

  std::printf("event log (P_s/P_r are the paper's sender/receiver phase "
              "numbers; even = direct, odd = indirect)\n\n");
  Report("connection established", client, server, sim);

  // Phase A: receiver ahead — post all receives first, then send.
  for (int i = 0; i < kPerPhase; ++i) {
    server->Recv(in.data() + recvd, kMsg, RecvFlags{.waitall = true});
    recvd += kMsg;
  }
  sim.RunFor(Microseconds(20));  // ADVERTs reach the sender
  for (int i = 0; i < kPerPhase; ++i) {
    client->Send(out.data() + sent, kMsg);
    sent += kMsg;
  }
  sim.Run();
  Report("phase A done (receiver ahead -> all direct)", client, server, sim);

  // Phase B: sender ahead — blast sends with no receives posted.
  for (int i = 0; i < kPerPhase; ++i) {
    client->Send(out.data() + sent, kMsg);
    sent += kMsg;
  }
  sim.RunFor(Microseconds(200));
  Report("phase B sends issued (no receives -> indirect)", client, server,
         sim);
  for (int i = 0; i < kPerPhase; ++i) {
    server->Recv(in.data() + recvd, kMsg, RecvFlags{.waitall = true});
    recvd += kMsg;
  }
  sim.Run();
  Report("phase B drained from the hidden buffer", client, server, sim);

  // Phase C: idle gap, then receiver-ahead traffic again.  The receiver
  // resynchronised when its buffer emptied, so service is direct again.
  sim.RunFor(Milliseconds(1));
  for (int i = 0; i < kPerPhase; ++i) {
    server->Recv(in.data() + recvd, kMsg, RecvFlags{.waitall = true});
    recvd += kMsg;
  }
  sim.RunFor(Microseconds(20));
  for (int i = 0; i < kPerPhase; ++i) {
    client->Send(out.data() + sent, kMsg);
    sent += kMsg;
  }
  sim.Run();
  Report("phase C done (resynchronised -> direct again)", client, server,
         sim);

  std::printf(
      "\n%llu bytes delivered in order; ADVERTs discarded as stale: %llu\n",
      static_cast<unsigned long long>(server->stats().bytes_received),
      static_cast<unsigned long long>(client->stats().adverts_discarded));

  // The full protocol trace is available for inspection — and the lemmas
  // the paper proves about it can be machine-checked.
  InvariantReport report = CheckStreamPair(client->tx_trace(),
                                           server->rx_trace());
  std::printf("invariant check over %zu sender + %zu receiver trace events: "
              "%s\n",
              client->tx_trace().events().size(),
              server->rx_trace().events().size(), report.Summary().c_str());
  std::printf("\nfirst sender trace records:\n");
  int shown = 0;
  for (const auto& ev : client->tx_trace().events()) {
    if (++shown > 6) break;
    std::printf("  t=%8.2fus %-16s seq=%-7llu P_s=%llu\n",
                ToMicroseconds(ev.time), ToString(ev.type),
                static_cast<unsigned long long>(ev.seq),
                static_cast<unsigned long long>(ev.phase));
  }
  return report.ok() ? 0 : 1;
}
