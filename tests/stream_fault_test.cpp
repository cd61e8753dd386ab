// Directed fault-injection scenarios: specific protocol races provoked by
// hand-placed faults (delayed control traffic, CPU stalls, link jitter and
// stall bursts), each asserting full stream integrity AND a clean report
// from the trace invariant checker — plus determinism and corpus-format
// coverage for the seeded torture harness built on the same machinery.
//
// The torture golden corpus (tests/data/torture_golden.txt) pins every
// mode's fingerprint, and tests/data/checker_golden.txt the checker's
// verdicts under each sabotage hook; after an intentional behaviour change
// regenerate them with
//   EXS_UPDATE_GOLDEN=1 ./fault_test --gtest_filter='TortureGolden*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/pattern.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "simnet/faults.hpp"
#include "torture.hpp"

namespace exs {
namespace {

using simnet::FaultInjector;
using simnet::FaultKind;
using simnet::FaultPlan;
using simnet::FaultPlanConfig;
using simnet::HardwareProfile;

void ExpectCleanChecker(Socket* client, Socket* server) {
  InvariantReport report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.events_checked, 0u);
}

class StreamFaultTest : public ::testing::Test {
 protected:
  Simulation sim_{HardwareProfile::FdrInfiniBand(), /*seed=*/77,
                  /*carry_payload=*/true};
};

// The fresh ADVERT that would flip the sender back to direct is held at
// the sender's control channel across the phase boundary.  The sender
// keeps servicing indirectly; when the hold releases, the ADVERT arrives
// stale (Fig. 8) and must be discarded — with no integrity loss.
TEST_F(StreamFaultTest, AdvertDelayedAcrossPhaseFlip) {
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> out(96 * 1024), in(96 * 1024);
  FillPattern(out.data(), out.size(), 0, 1);

  // Indirect phase: send with no receive posted.
  client->Send(out.data(), 32 * 1024);
  sim_.RunFor(Microseconds(100));
  ASSERT_EQ(client->stream_tx()->phase() % 2, 1u);

  // Drain, then freeze the sender's incoming control traffic before the
  // fresh receive's ADVERT can arrive.
  server->Recv(in.data(), 32 * 1024, RecvFlags{.waitall = true});
  sim_.RunFor(Milliseconds(1));
  client->channel_internal().HoldIncoming(Microseconds(400));
  server->Recv(in.data() + 32 * 1024, 32 * 1024);
  sim_.RunFor(Microseconds(50));
  EXPECT_GT(client->channel_internal().HeldCompletions(), 0u)
      << "the hold window should have captured the in-flight ADVERT";

  // New data during the hold is serviced indirectly; the held ADVERT is
  // stale by the time it is delivered.
  client->Send(out.data() + 32 * 1024, 32 * 1024);
  sim_.RunFor(Milliseconds(1));
  EXPECT_EQ(client->channel_internal().HeldCompletions(), 0u);

  // The released ADVERT is now stale (S_s moved past it during the hold);
  // the next send's matching loop must discard it, not match it.
  client->Send(out.data() + 64 * 1024, 32 * 1024);
  server->Recv(in.data() + 64 * 1024, 32 * 1024, RecvFlags{.waitall = true});
  sim_.Run();

  EXPECT_GE(client->stats().adverts_discarded, 1u);
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 1), in.size());
  EXPECT_EQ(server->stream_rx()->sequence(), in.size());
  ExpectCleanChecker(client, server);
}

// The receiver's CPU stalls in the middle of draining the intermediate
// buffer: copy-out resumes afterwards and every occupancy/continuity
// invariant still holds.
TEST_F(StreamFaultTest, ReceiverCpuStallDuringCopyOut) {
  StreamOptions opts;
  opts.mode = ProtocolMode::kIndirectOnly;
  opts.intermediate_buffer_bytes = 32 * 1024;
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> out(128 * 1024), in(128 * 1024);
  FillPattern(out.data(), out.size(), 0, 2);

  client->Send(out.data(), out.size());
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.RunFor(Microseconds(40));  // copy-out under way

  sim_.fabric().node(1).cpu().InjectStall(Milliseconds(2));
  sim_.Run();

  EXPECT_EQ(sim_.fabric().node(1).cpu().StallsInjected(), 1u);
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 2), in.size());
  EXPECT_TRUE(client->Quiescent() && server->Quiescent());
  ExpectCleanChecker(client, server);
}

// Heavy link jitter while the dynamic protocol is switching phases: the
// monotone-delivery clamp keeps RC ordering, so the protocol must come
// through with both integrity and invariants intact.
TEST_F(StreamFaultTest, JitterBurstDuringDynamicSwitching) {
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing();
  server->EnableTracing();
  constexpr std::uint64_t kChunk = 8 * 1024;
  constexpr int kChunks = 16;
  std::vector<std::uint8_t> out(kChunks * kChunk), in(kChunks * kChunk);
  FillPattern(out.data(), out.size(), 0, 3);

  Rng jitter_rng(99);
  sim_.fabric().channel_from(0).AddFaultJitter(Microseconds(20), &jitter_rng);
  sim_.fabric().channel_from(1).AddFaultJitter(Microseconds(20), &jitter_rng);

  for (int i = 0; i < kChunks; ++i) {
    client->Send(out.data() + i * kChunk, kChunk);
    server->Recv(in.data() + i * kChunk, kChunk, RecvFlags{.waitall = true});
    sim_.RunFor(Microseconds(30));
    if (i == kChunks / 2) {
      // Close the jitter window mid-run: the second half runs clean.
      sim_.fabric().channel_from(0).AddFaultJitter(-Microseconds(20),
                                                   &jitter_rng);
      sim_.fabric().channel_from(1).AddFaultJitter(-Microseconds(20),
                                                   &jitter_rng);
    }
  }
  sim_.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 3), in.size());
  EXPECT_EQ(client->stream_tx()->sequence(), out.size());
  EXPECT_EQ(server->stream_rx()->sequence_estimate(), out.size());
  ExpectCleanChecker(client, server);
}

// A retransmission-style stall burst on the data direction mid-transfer.
TEST_F(StreamFaultTest, LinkStallBurstMidTransfer) {
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> out(64 * 1024), in(64 * 1024);
  FillPattern(out.data(), out.size(), 0, 4);

  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.RunFor(Microseconds(20));
  client->Send(out.data(), out.size());
  sim_.RunFor(Microseconds(10));

  auto& data_link = sim_.fabric().channel_from(0);
  data_link.AddFaultDelay(Microseconds(300));
  sim_.RunFor(Microseconds(200));
  data_link.AddFaultDelay(-Microseconds(300));
  ASSERT_EQ(data_link.fault_delay(), SimDuration{0});
  sim_.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 4), in.size());
  ExpectCleanChecker(client, server);
}

// Overlapping hold windows on the control channel must release everything
// exactly once, in arrival order.
TEST_F(StreamFaultTest, OverlappingControlHoldsDrainOnce) {
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> out(48 * 1024), in(48 * 1024);
  FillPattern(out.data(), out.size(), 0, 5);

  client->channel_internal().HoldIncoming(Microseconds(100));
  client->channel_internal().HoldIncoming(Microseconds(50));  // subsumed
  client->channel_internal().HoldIncoming(Microseconds(250));

  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  client->Send(out.data(), out.size());
  sim_.Run();

  EXPECT_EQ(client->channel_internal().HeldCompletions(), 0u);
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 5), in.size());
  ExpectCleanChecker(client, server);
}

TEST(FaultPlanTest, GenerationIsDeterministicPerSeed) {
  FaultPlanConfig cfg = FaultPlanConfig::ScaledTo(Milliseconds(5));
  FaultPlan a = FaultPlan::Generate(42, cfg);
  FaultPlan b = FaultPlan::Generate(42, cfg);
  FaultPlan c = FaultPlan::Generate(43, cfg);

  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_GT(a.events.size(), 0u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].target, b.events[i].target);
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].magnitude, b.events[i].magnitude);
  }
  EXPECT_FALSE(a.Describe().empty());

  bool differs = c.events.size() != a.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = c.events[i].at != a.events[i].at;
  }
  EXPECT_TRUE(differs) << "different seeds should give different plans";
}

TEST(TortureHarnessTest, RunIsDeterministicByFingerprint) {
  torture::TortureConfig cfg;
  cfg.seed = 7;
  cfg.total_bytes = 64 * 1024;
  torture::TortureResult a = torture::RunTorture(cfg);
  torture::TortureResult b = torture::RunTorture(cfg);
  EXPECT_TRUE(a.ok) << a.Describe();
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.events_checked, b.events_checked);
  EXPECT_GT(a.faults_applied, 0u);

  torture::TortureConfig other = cfg;
  other.seed = 8;
  EXPECT_NE(torture::RunTorture(other).fingerprint, a.fingerprint);
}

TEST(TortureHarnessTest, AllProfilesAndModesPass) {
  for (const char* profile : {"fdr", "iwarp", "wan"}) {
    for (const std::string& mode : torture::ModeNames()) {
      torture::TortureConfig cfg;
      cfg.seed = 11;
      cfg.profile = profile;
      cfg.mode = mode;
      cfg.total_bytes = 64 * 1024;
      torture::TortureResult res = torture::RunTorture(cfg);
      EXPECT_TRUE(res.ok) << profile << "/" << mode << ": " << res.Describe();
    }
  }
}

TEST(TortureHarnessTest, CorpusEntryRoundTrips) {
  torture::TortureConfig cfg;
  cfg.seed = 123;
  cfg.profile = "wan";
  cfg.mode = "seqpacket";
  cfg.total_bytes = 12345;
  cfg.max_message = 777;
  cfg.buffer_bytes = 4096;
  cfg.trace_capacity = 50;
  cfg.enable_faults = false;
  cfg.sabotage_advert_gate = true;
  cfg.expect_fingerprint = 0xdeadbeefull;
  // Every mode-specific pin, so the key table cannot drop one.
  cfg.rails = 3;
  cfg.sched = "adaptive";
  cfg.streams = 5;
  cfg.width = 6;
  cfg.kill_permille = 7;
  cfg.batch = 8;
  cfg.arity = 2;

  torture::TortureConfig parsed;
  ASSERT_TRUE(
      torture::DecodeCorpusEntry(torture::EncodeCorpusEntry(cfg), &parsed));
  EXPECT_EQ(parsed.seed, cfg.seed);
  EXPECT_EQ(parsed.profile, cfg.profile);
  EXPECT_EQ(parsed.mode, cfg.mode);
  EXPECT_EQ(parsed.total_bytes, cfg.total_bytes);
  EXPECT_EQ(parsed.max_message, cfg.max_message);
  EXPECT_EQ(parsed.buffer_bytes, cfg.buffer_bytes);
  EXPECT_EQ(parsed.trace_capacity, cfg.trace_capacity);
  EXPECT_EQ(parsed.enable_faults, cfg.enable_faults);
  EXPECT_EQ(parsed.sabotage_stale_adverts, cfg.sabotage_stale_adverts);
  EXPECT_EQ(parsed.sabotage_advert_gate, cfg.sabotage_advert_gate);
  EXPECT_EQ(parsed.expect_fingerprint, cfg.expect_fingerprint);
  EXPECT_EQ(parsed.rails, cfg.rails);
  EXPECT_EQ(parsed.sched, cfg.sched);
  EXPECT_EQ(parsed.streams, cfg.streams);
  EXPECT_EQ(parsed.width, cfg.width);
  EXPECT_EQ(parsed.kill_permille, cfg.kill_permille);
  EXPECT_EQ(parsed.batch, cfg.batch);
  EXPECT_EQ(parsed.arity, cfg.arity);
  EXPECT_EQ(torture::EncodeCorpusEntry(parsed),
            torture::EncodeCorpusEntry(cfg));

  torture::TortureConfig ignored;
  EXPECT_FALSE(torture::DecodeCorpusEntry("", &ignored));
  EXPECT_FALSE(torture::DecodeCorpusEntry("seed=abc mode=dynamic", &ignored));
  EXPECT_FALSE(torture::DecodeCorpusEntry("seed=1 mode=bogus", &ignored));
  EXPECT_FALSE(torture::DecodeCorpusEntry("mode=dynamic", &ignored))
      << "an entry without a seed is not replayable";
  EXPECT_FALSE(torture::DecodeCorpusEntry("seed=1 sched=fifo", &ignored));
  EXPECT_FALSE(torture::DecodeCorpusEntry("seed=1 bogus=1", &ignored));
}

// Recorded corpus lines decode and re-encode byte-identically, so a
// corpus written by an older harness replays as the very same entry.
TEST(TortureHarnessTest, CorpusFilesReencodeByteIdentically) {
  for (const char* name : {"/torture_golden.txt", "/recovery_golden.txt"}) {
    std::ifstream file(std::string(EXS_TEST_DATA_DIR) + name);
    ASSERT_TRUE(file.good()) << name;
    std::string line;
    while (std::getline(file, line)) {
      if (line.empty() || line[0] == '#') continue;
      torture::TortureConfig cfg;
      ASSERT_TRUE(torture::DecodeCorpusEntry(line, &cfg)) << line;
      EXPECT_EQ(torture::EncodeCorpusEntry(cfg), line);
    }
  }
}

// Every mode honours the sabotage hooks, kill's twin legs included: a
// sabotaged kill run must fail with checker findings.
TEST(TortureHarnessTest, SabotagedKillRunIsCaught) {
  for (bool stale : {true, false}) {
    torture::TortureConfig cfg;
    cfg.seed = 2;
    cfg.mode = "kill";
    cfg.sabotage_stale_adverts = stale;
    cfg.sabotage_advert_gate = !stale;
    torture::TortureResult res = torture::RunTorture(cfg);
    EXPECT_FALSE(res.ok) << torture::EncodeCorpusEntry(cfg);
    EXPECT_FALSE(res.checker_violations.empty())
        << torture::EncodeCorpusEntry(cfg) << "\n" << res.Describe();
  }
}

// ---------------------------------------------------------------------------
// Recorded fingerprints for every torture mode on every profile (the
// recovery_golden.txt convention): a refactor of the harness that changes
// what any mode drives — an RNG draw, a fault-plan event, a socket option —
// drifts a fingerprint here.  Each entry also runs twice in-process as the
// determinism witness.
// ---------------------------------------------------------------------------

constexpr const char* kTortureCorpusPath =
    EXS_TEST_DATA_DIR "/torture_golden.txt";

std::vector<torture::TortureConfig> TortureGoldenConfigs() {
  std::vector<torture::TortureConfig> cfgs;
  for (const std::string& mode : torture::ModeNames()) {
    for (const char* profile : {"fdr", "iwarp", "wan"}) {
      for (std::uint64_t seed : {1, 6}) {
        torture::TortureConfig cfg;
        cfg.seed = seed;
        cfg.mode = mode;
        cfg.profile = profile;
        cfgs.push_back(cfg);
      }
    }
  }
  // One entry per pinned corpus key, so the pins reach the drivers too.
  auto pinned = [&cfgs](const char* mode, auto&& pin) {
    torture::TortureConfig cfg;
    cfg.seed = 3;
    cfg.mode = mode;
    pin(cfg);
    cfgs.push_back(cfg);
  };
  pinned("stripe", [](auto& c) { c.rails = 2; c.sched = "rr"; });
  pinned("kill", [](auto& c) { c.rails = 4; c.sched = "adaptive"; });
  pinned("many", [](auto& c) { c.streams = 5; });
  pinned("mux", [](auto& c) { c.streams = 3; c.width = 3; });
  pinned("rpc", [](auto& c) { c.streams = 2; c.width = 2; });
  pinned("kill", [](auto& c) { c.kill_permille = 450; });
  pinned("batch", [](auto& c) { c.batch = 2; c.arity = 4; });
  return cfgs;
}

TEST(TortureGolden, EveryModeMatchesCorpus) {
  if (std::getenv("EXS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream header(kTortureCorpusPath, std::ios::trunc);
    ASSERT_TRUE(header.good()) << "cannot rewrite " << kTortureCorpusPath;
    header << "# Torture fingerprints: every mode x profile at two seeds,\n"
              "# plus one entry per pinned corpus key.  Regenerate with\n"
              "# EXS_UPDATE_GOLDEN=1 (see stream_fault_test.cpp).\n";
    header.close();
    for (const torture::TortureConfig& cfg : TortureGoldenConfigs()) {
      torture::TortureResult res = torture::RunTorture(cfg);
      ASSERT_TRUE(res.ok) << torture::EncodeCorpusEntry(cfg) << "\n"
                          << res.Describe();
      torture::AppendCorpusEntry(kTortureCorpusPath, cfg, res.fingerprint);
    }
    GTEST_SKIP() << "corpus regenerated at " << kTortureCorpusPath;
  }

  std::vector<torture::TortureConfig> entries =
      torture::LoadCorpus(kTortureCorpusPath);
  ASSERT_FALSE(entries.empty());
  for (const torture::TortureConfig& cfg : entries) {
    torture::TortureResult first = torture::RunTorture(cfg);
    torture::TortureResult second = torture::RunTorture(cfg);
    EXPECT_TRUE(first.ok) << torture::EncodeCorpusEntry(cfg) << "\n"
                          << first.Describe();
    EXPECT_EQ(first.fingerprint, second.fingerprint)
        << "nondeterministic run: " << torture::EncodeCorpusEntry(cfg);
    EXPECT_EQ(first.fingerprint, cfg.expect_fingerprint)
        << "torture run drifted from the recorded corpus entry: "
        << torture::EncodeCorpusEntry(cfg)
        << " (intentional change? regenerate with EXS_UPDATE_GOLDEN=1)";
  }
}

// ---------------------------------------------------------------------------
// Recorded checker verdicts for every sabotage hook x mode x profile at two
// seeds: the count and an FNV-1a of each run's sorted checker violations.
// A refactor of the invariant checker that adds, drops or rewords a finding
// drifts a line here; the order of findings inside one report does not.
// (The `failure:` lines are left out: they carry source paths.)
// ---------------------------------------------------------------------------

constexpr const char* kCheckerCorpusPath =
    EXS_TEST_DATA_DIR "/checker_golden.txt";

std::vector<std::string> SabotageVerdicts() {
  std::vector<std::string> lines;
  for (const char* hook : {"stale", "gate"}) {
    for (const std::string& mode : torture::ModeNames()) {
      for (const char* profile : {"fdr", "iwarp", "wan"}) {
        for (std::uint64_t seed : {1, 2}) {
          torture::TortureConfig cfg;
          cfg.seed = seed;
          cfg.mode = mode;
          cfg.profile = profile;
          cfg.sabotage_stale_adverts = hook == std::string("stale");
          cfg.sabotage_advert_gate = !cfg.sabotage_stale_adverts;
          torture::TortureResult res = torture::RunTorture(cfg);
          std::vector<std::string> found = res.checker_violations;
          std::sort(found.begin(), found.end());
          Fnv1a h;
          for (const std::string& v : found) {
            h.Mix(v.size());
            h.MixBytes(reinterpret_cast<const std::uint8_t*>(v.data()),
                       v.size());
          }
          std::ostringstream line;
          line << "sabotage=" << hook << " mode=" << mode
               << " profile=" << profile << " seed=" << seed
               << " violations=" << found.size() << " hash=0x" << std::hex
               << h.value();
          lines.push_back(line.str());
        }
      }
    }
  }
  return lines;
}

TEST(TortureGolden, SabotageVerdictsMatchCorpus) {
  std::vector<std::string> actual = SabotageVerdicts();
  if (std::getenv("EXS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kCheckerCorpusPath, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot rewrite " << kCheckerCorpusPath;
    out << "# Checker verdicts under each sabotage hook: every mode x\n"
           "# profile at seeds 1..2, with the count and FNV-1a of the run's\n"
           "# sorted checker violations.  Regenerate with EXS_UPDATE_GOLDEN=1\n"
           "# (see stream_fault_test.cpp).\n";
    for (const std::string& line : actual) out << line << "\n";
    GTEST_SKIP() << "corpus regenerated at " << kCheckerCorpusPath;
  }

  std::ifstream file(kCheckerCorpusPath);
  ASSERT_TRUE(file.good()) << kCheckerCorpusPath;
  std::vector<std::string> expected;
  std::string line;
  while (std::getline(file, line)) {
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  }
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i])
        << "checker verdict drifted from the recorded corpus (intentional "
           "change? regenerate with EXS_UPDATE_GOLDEN=1)";
  }
}

}  // namespace
}  // namespace exs
