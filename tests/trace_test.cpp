// Runtime verification of the paper's §IV-A proofs: record full protocol
// traces during adversarial workloads and check Lemmas 1-4 plus the
// monotonicity/conservation facts their proofs rest on.  Where the
// property tests check the *consequence* of the safety theorem (bytes land
// correctly), these check the *stated invariants themselves*.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/pattern.hpp"
#include "common/rng.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "exs/trace.hpp"

namespace exs {
namespace {

using simnet::HardwareProfile;

TEST(TraceLog, DisabledByDefaultAndRecordsWhenEnabled) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 1, false);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream);
  std::vector<std::uint8_t> buf(4096);
  server->Recv(buf.data(), buf.size());
  client->Send(buf.data(), buf.size());
  sim.Run();
  EXPECT_TRUE(client->tx_trace().events().empty());

  client->EnableTracing();
  server->EnableTracing();
  server->Recv(buf.data(), buf.size());
  client->Send(buf.data(), buf.size());
  sim.Run();
  EXPECT_FALSE(client->tx_trace().events().empty());
  EXPECT_FALSE(server->rx_trace().events().empty());
  EXPECT_FALSE(client->tx_trace().Format().empty());
}

TEST(TraceLemmas, SimpleDirectRunSatisfiesAll) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 2, false);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> buf(64 * 1024);
  for (int i = 0; i < 8; ++i) {
    server->Recv(buf.data(), buf.size(), RecvFlags{.waitall = true});
    sim.RunFor(Microseconds(30));
    client->Send(buf.data(), buf.size());
    sim.Run();
  }
  auto result = CheckStreamPair(client->tx_trace(), server->rx_trace());
  EXPECT_TRUE(result.ok()) << result.Summary();
}

TEST(TraceLemmas, IndirectHeavyRunSatisfiesAll) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 3, false);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> out(512 * 1024), in(512 * 1024);
  client->Send(out.data(), out.size());  // everything buffered first
  for (int i = 0; i < 8; ++i) {
    server->Recv(in.data() + i * 64 * 1024, 64 * 1024,
                 RecvFlags{.waitall = true});
    sim.RunFor(Microseconds(50));
  }
  sim.Run();
  auto result = CheckStreamPair(client->tx_trace(), server->rx_trace());
  EXPECT_TRUE(result.ok()) << result.Summary();
  // The run must actually have exercised the indirect machinery.
  EXPECT_GE(client->stats().indirect_transfers, 1u);
}

struct LemmaSweepParams {
  std::uint64_t seed;
  std::uint64_t buffer_bytes;
};

class TraceLemmaSweep : public ::testing::TestWithParam<LemmaSweepParams> {};

TEST_P(TraceLemmaSweep, RandomizedWorkloadSatisfiesLemmas) {
  const auto& p = GetParam();
  StreamOptions opts;
  opts.intermediate_buffer_bytes = p.buffer_bytes;
  Simulation sim(HardwareProfile::FdrInfiniBand(), p.seed, false);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  Rng rng(p.seed * 31 + 7);
  constexpr std::uint64_t kTotal = 512 * 1024;
  std::vector<std::uint8_t> out(kTotal), in(kTotal);
  std::uint64_t sent = 0, recv_posted = 0, recv_done = 0;
  server->events().SetHandler(
      [&](const Event& ev) { recv_done += ev.bytes; });

  std::uint64_t guard = 0;
  while (recv_done < kTotal) {
    ASSERT_LT(++guard, 100000u);
    if (sent < kTotal && rng.NextBool(0.6)) {
      std::uint64_t n = std::min<std::uint64_t>(
          rng.NextInRange(1, 48 * 1024), kTotal - sent);
      client->Send(out.data() + sent, n);
      sent += n;
    }
    if (recv_posted < kTotal && rng.NextBool(0.6)) {
      std::uint64_t n = std::min<std::uint64_t>(
          rng.NextInRange(1, 48 * 1024), kTotal - recv_posted);
      server->Recv(in.data() + recv_posted, n, RecvFlags{.waitall = true});
      recv_posted += n;
    }
    sim.RunFor(
        static_cast<SimDuration>(rng.NextInRange(0, Microseconds(40))));
    if (sent == kTotal && recv_posted == kTotal) sim.Run();
  }
  sim.Run();

  auto result = CheckStreamPair(client->tx_trace(), server->rx_trace());
  EXPECT_TRUE(result.ok()) << result.Summary();

  // Sanity: the sweep genuinely mixes modes across its seeds.
  const StreamStats& stats = client->stats();
  EXPECT_EQ(stats.direct_bytes + stats.indirect_bytes, kTotal);
}

std::vector<LemmaSweepParams> LemmaParams() {
  std::vector<LemmaSweepParams> params;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    params.push_back({seed, 64 * 1024});
  }
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    params.push_back({seed, 4 * 1024});  // tiny buffer: constant churn
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TraceLemmaSweep, ::testing::ValuesIn(LemmaParams()),
    [](const ::testing::TestParamInfo<LemmaSweepParams>& info) {
      return "seed" + std::to_string(info.param.seed) + "_buf" +
             std::to_string(info.param.buffer_bytes / 1024) + "k";
    });

}  // namespace
}  // namespace exs
