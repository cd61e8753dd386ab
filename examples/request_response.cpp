// A request/response (RPC-style) service on SOCK_SEQPACKET sockets.
//
// Message-oriented sockets preserve boundaries, which is exactly what an
// RPC framing wants: one Recv yields one request, one Send returns one
// response — no length-prefix plumbing.  The client issues a pipeline of
// requests with varying payloads and reports the latency distribution.
// Every request and response carries a per-id byte pattern that the other
// side verifies, and both directions' traces must pass the invariant
// checker; any mismatch or violation exits 1.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/pattern.hpp"
#include "common/rng.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"

namespace {

using namespace exs;  // NOLINT

constexpr int kRequests = 2000;
constexpr std::uint64_t kMaxPayload = 8 * kKiB;

struct RequestHeader {
  std::uint64_t id;
  std::uint64_t payload_bytes;
};

/// Pattern seeds: a request's payload and its response's differ.
std::uint64_t RequestSeed(std::uint64_t id) { return 2 * id + 1; }
std::uint64_t ResponseSeed(std::uint64_t id) { return 2 * id + 2; }

/// True when a received message is a header plus its declared payload,
/// carrying the pattern `seed_of(id)`.
bool Intact(const std::vector<std::uint8_t>& buf, std::uint64_t bytes,
            std::uint64_t (*seed_of)(std::uint64_t)) {
  RequestHeader hdr;
  std::memcpy(&hdr, buf.data(), sizeof(hdr));
  return bytes == sizeof(hdr) + hdr.payload_bytes &&
         VerifyPattern(buf.data() + sizeof(hdr), hdr.payload_bytes, 0,
                       seed_of(hdr.id)) == hdr.payload_bytes;
}

}  // namespace

int main() {
  Simulation sim(simnet::HardwareProfile::FdrInfiniBand(), /*seed=*/11);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kSeqPacket);
  client->EnableTracing();
  server->EnableTracing();
  std::uint64_t corrupted = 0;

  // Server state: echo-style handler that "processes" each request and
  // responds with the same id.
  std::vector<std::uint8_t> srv_in(sizeof(RequestHeader) + kMaxPayload);
  std::vector<std::uint8_t> srv_out(sizeof(RequestHeader) + kMaxPayload);
  std::uint64_t served = 0;
  server->events().SetHandler([&, server = server](const Event& ev) {
    if (ev.type != EventType::kRecvComplete) return;  // response send done
    if (!Intact(srv_in, ev.bytes, RequestSeed)) ++corrupted;
    RequestHeader hdr;
    std::memcpy(&hdr, srv_in.data(), sizeof(hdr));
    // Response: header + a quarter of the request payload.
    RequestHeader resp{hdr.id, hdr.payload_bytes / 4};
    std::memcpy(srv_out.data(), &resp, sizeof(resp));
    FillPattern(srv_out.data() + sizeof(resp), resp.payload_bytes, 0,
                ResponseSeed(resp.id));
    server->Send(srv_out.data(), sizeof(resp) + resp.payload_bytes);
    server->Recv(srv_in.data(), srv_in.size());
    ++served;
  });

  // Client state: a window of in-flight requests; latency per id.
  std::vector<std::uint8_t> cli_out(sizeof(RequestHeader) + kMaxPayload);
  std::vector<std::uint8_t> cli_in(sizeof(RequestHeader) + kMaxPayload);
  std::vector<SimTime> issued(kRequests);
  std::vector<double> latencies_us;
  latencies_us.reserve(kRequests);
  Rng rng(5);
  std::uint64_t next_id = 0;

  auto issue = [&] {
    if (next_id >= kRequests) return;
    RequestHeader hdr{next_id, rng.NextInRange(0, kMaxPayload)};
    std::memcpy(cli_out.data(), &hdr, sizeof(hdr));
    FillPattern(cli_out.data() + sizeof(hdr), hdr.payload_bytes, 0,
                RequestSeed(hdr.id));
    issued[next_id] = sim.Now();
    client->Send(cli_out.data(), sizeof(hdr) + hdr.payload_bytes);
    ++next_id;
  };

  client->events().SetHandler([&, client = client](const Event& ev) {
    if (ev.type != EventType::kRecvComplete) return;
    if (!Intact(cli_in, ev.bytes, ResponseSeed)) ++corrupted;
    RequestHeader hdr;
    std::memcpy(&hdr, cli_in.data(), sizeof(hdr));
    latencies_us.push_back(ToMicroseconds(sim.Now() - issued[hdr.id]));
    client->Recv(cli_in.data(), cli_in.size());
    issue();
  });

  // Prime the pipeline: the serial request loop here keeps one request in
  // flight (SEQPACKET matches one ADVERT per message).
  server->Recv(srv_in.data(), srv_in.size());
  client->Recv(cli_in.data(), cli_in.size());
  sim.RunFor(Microseconds(20));
  issue();
  sim.Run();

  if (latencies_us.empty()) {
    std::printf("no response arrived\n");
    return 1;
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  auto pct = [&](double p) {
    return latencies_us[static_cast<std::size_t>(
        p * (latencies_us.size() - 1))];
  };
  std::printf("%d requests served (payloads 0..%llu KiB)\n",
              kRequests, static_cast<unsigned long long>(kMaxPayload / kKiB));
  std::printf("request latency: p50 %.1f us  p90 %.1f us  p99 %.1f us  max "
              "%.1f us\n",
              pct(0.50), pct(0.90), pct(0.99), latencies_us.back());
  std::printf("every message moved zero-copy: %llu direct transfers, %llu "
              "indirect\n",
              static_cast<unsigned long long>(
                  client->stats().direct_transfers +
                  server->stats().direct_transfers),
              static_cast<unsigned long long>(
                  client->stats().indirect_transfers));

  InvariantReport report =
      CheckSeqPacketPair(client->tx_trace(), server->rx_trace());
  report.Merge(CheckSeqPacketPair(server->tx_trace(), client->rx_trace()));
  const bool complete =
      served == kRequests &&
      latencies_us.size() == static_cast<std::size_t>(kRequests);
  std::printf("%llu corrupted messages, %s; invariant check: %s\n",
              static_cast<unsigned long long>(corrupted),
              complete ? "every request answered" : "REQUESTS MISSING",
              report.Summary().c_str());
  return corrupted == 0 && complete && report.ok() ? 0 : 1;
}
