// Parameterized integrity sweep across every hardware profile, protocol
// mode, and socket workload shape: the stream contract must hold on any
// fabric the library models.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/pattern.hpp"
#include "common/rng.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"

namespace exs {
namespace {

using simnet::HardwareProfile;

enum class ProfileKind { kFdr, kQdr, kRoce, kIwarp, kWan };

HardwareProfile MakeProfile(ProfileKind kind) {
  switch (kind) {
    case ProfileKind::kFdr: return HardwareProfile::FdrInfiniBand();
    case ProfileKind::kQdr: return HardwareProfile::QdrInfiniBand();
    case ProfileKind::kRoce: return HardwareProfile::RoCE10G();
    case ProfileKind::kIwarp: return HardwareProfile::Iwarp10G();
    case ProfileKind::kWan:
      return HardwareProfile::RoCE10GWithDelay(Milliseconds(24),
                                               Milliseconds(1));
  }
  return HardwareProfile::FdrInfiniBand();
}

const char* Name(ProfileKind kind) {
  switch (kind) {
    case ProfileKind::kFdr: return "fdr";
    case ProfileKind::kQdr: return "qdr";
    case ProfileKind::kRoce: return "roce";
    case ProfileKind::kIwarp: return "iwarp";
    case ProfileKind::kWan: return "wan";
  }
  return "?";
}

struct CrossParams {
  ProfileKind profile;
  ProtocolMode mode;
  std::uint64_t seed;
};

class CrossProfileTest : public ::testing::TestWithParam<CrossParams> {};

TEST_P(CrossProfileTest, MixedWorkloadIntegrity) {
  const CrossParams& p = GetParam();
  StreamOptions opts;
  opts.mode = p.mode;
  opts.intermediate_buffer_bytes = 256 * kKiB;
  Simulation sim(MakeProfile(p.profile), p.seed, /*carry_payload=*/true);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  constexpr std::uint64_t kTotal = 384 * 1024;
  std::vector<std::uint8_t> out(kTotal), in(kTotal);
  FillPattern(out.data(), out.size(), 0, p.seed);

  Rng rng(p.seed + 99);
  std::uint64_t sent = 0, posted = 0;
  while (sent < kTotal || posted < kTotal) {
    if (sent < kTotal) {
      std::uint64_t n = std::min<std::uint64_t>(
          rng.NextInRange(1024, 64 * 1024), kTotal - sent);
      client->Send(out.data() + sent, n);
      sent += n;
    }
    if (posted < kTotal) {
      std::uint64_t n = std::min<std::uint64_t>(
          rng.NextInRange(1024, 64 * 1024), kTotal - posted);
      server->Recv(in.data() + posted, n, RecvFlags{.waitall = true});
      posted += n;
    }
    sim.RunFor(static_cast<SimDuration>(
        rng.NextInRange(0, static_cast<std::uint64_t>(Microseconds(200)))));
  }
  sim.Run();

  EXPECT_EQ(server->stats().bytes_received, kTotal);
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, p.seed), in.size());
  EXPECT_TRUE(client->Quiescent());
  EXPECT_TRUE(server->Quiescent());
  if (client->stream_tx() != nullptr) {  // not present in rendezvous mode
    EXPECT_EQ(client->stream_tx()->sequence(), kTotal);
    EXPECT_EQ(server->stream_rx()->sequence_estimate(), kTotal);
  }

  auto lemmas = CheckStreamPair(client->tx_trace(), server->rx_trace());
  EXPECT_TRUE(lemmas.ok()) << lemmas.Summary();

  EXPECT_EQ(client->channel().qp_stats().rnr_errors, 0u);
  EXPECT_EQ(server->channel().qp_stats().rnr_errors, 0u);
}

std::vector<CrossParams> CrossMatrix() {
  std::vector<CrossParams> params;
  for (ProfileKind profile :
       {ProfileKind::kFdr, ProfileKind::kQdr, ProfileKind::kRoce,
        ProfileKind::kIwarp, ProfileKind::kWan}) {
    for (ProtocolMode mode :
         {ProtocolMode::kDynamic, ProtocolMode::kDirectOnly,
          ProtocolMode::kIndirectOnly, ProtocolMode::kReadRendezvous}) {
      for (std::uint64_t seed : {1ull, 2ull}) {
        params.push_back({profile, mode, seed});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CrossProfileTest, ::testing::ValuesIn(CrossMatrix()),
    [](const ::testing::TestParamInfo<CrossParams>& info) {
      std::string mode = ToString(info.param.mode);
      for (auto& c : mode) {
        if (c == '-') c = '_';
      }
      return std::string(Name(info.param.profile)) + "_" + mode + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace exs
