// Quickstart: the smallest complete EXS program.
//
// Creates a simulated FDR InfiniBand testbed with a connected stream
// socket pair, sends a message, receives it, and prints the completion
// events and the transfer statistics.  It checks what it got: the
// delivered bytes must equal the message and the protocol trace must pass
// the invariant checker, or it exits 1.  Build and run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"

int main() {
  using namespace exs;

  // A Simulation owns the two-node fabric: the clock, the link, one CPU
  // and one RDMA device per node.
  Simulation sim(simnet::HardwareProfile::FdrInfiniBand());

  // Stream sockets give TCP-like byte-stream semantics over RDMA.
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream);
  // Record protocol traces so the run can be machine-checked at the end.
  client->EnableTracing();
  server->EnableTracing();

  const std::string message = "hello, stream semantics over RDMA";
  std::vector<std::uint8_t> recv_buffer(256);
  std::uint64_t received = 0;

  // Completions arrive asynchronously on each socket's event queue.
  server->events().SetHandler([&](const Event& ev) {
    if (ev.type == EventType::kRecvComplete) {
      received = ev.bytes;
      std::cout << "[server] received " << ev.bytes << " bytes: \""
                << std::string(reinterpret_cast<char*>(recv_buffer.data()),
                               ev.bytes)
                << "\" at t=" << ToMicroseconds(sim.Now()) << " us\n";
    }
  });
  client->events().SetHandler([&](const Event& ev) {
    if (ev.type == EventType::kSendComplete) {
      std::cout << "[client] send of " << ev.bytes << " bytes completed at t="
                << ToMicroseconds(sim.Now()) << " us\n";
    }
  });

  // Both calls are asynchronous and return request ids immediately; the
  // simulation only advances inside Run()/RunFor().  Posting the receive
  // first and letting its ADVERT reach the sender puts the transfer on the
  // zero-copy direct path.
  server->Recv(recv_buffer.data(), recv_buffer.size());
  sim.RunFor(Microseconds(10));
  client->Send(message.data(), message.size());
  sim.Run();

  const StreamStats& stats = client->stats();
  std::cout << "\ntransfers: " << stats.direct_transfers << " direct, "
            << stats.indirect_transfers << " indirect ("
            << (stats.indirect_transfers > 0
                    ? "the send raced ahead of the receive's ADVERT"
                    : "the ADVERT was ready in time")
            << ")\n";

  const bool delivered =
      received == message.size() &&
      std::memcmp(recv_buffer.data(), message.data(), message.size()) == 0;
  InvariantReport report =
      CheckStreamPair(client->tx_trace(), server->rx_trace());
  std::cout << "delivered bytes match: " << (delivered ? "yes" : "NO")
            << "; invariant check: " << report.Summary() << "\n";
  return delivered && report.ok() ? 0 : 1;
}
