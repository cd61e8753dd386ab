// Exporter golden suite: the byte-exact output of every metrics exporter,
// pinned per configuration.  Each line of tests/data/metrics_golden.txt
// holds three FNV-1a fingerprints of one run:
//
//   metrics     Simulation::MetricsJson() (every pair socket's ToJson)
//   timeline    Simulation::TimelineJson() (series counter tracks included)
//   registries  ToJson + ToCsv of every registry the run touched: each
//               socket's (pair-created, connected, accepted) and the
//               engine/pool registry where there is one
//
// The configurations between them exercise every instrument family a
// socket can carry: the static per-socket set, rail<i>.*, mux.*, the
// engine's pool.*/engine.* plus engine.sched_delay on a socket, and
// trace.dropped_*.  Any change to a name, unit, ordering, or rendered
// value moves a fingerprint.
//
// When an exporter change is *intentional*, regenerate with
//
//   EXS_UPDATE_GOLDEN=1 ./exs_test --gtest_filter='MetricsGolden*'
//
// and review the rewritten corpus in the diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/pattern.hpp"
#include "common/rng.hpp"
#include "exs/engine/acceptor.hpp"
#include "exs/engine/progress_engine.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"

namespace exs {
namespace {

using simnet::HardwareProfile;

constexpr const char* kCorpusPath = EXS_TEST_DATA_DIR "/metrics_golden.txt";

struct Snapshot {
  std::uint64_t metrics = 0;
  std::uint64_t timeline = 0;
  std::uint64_t registries = 0;
};

std::uint64_t Hash(const std::string& s) {
  Fnv1a h;
  h.MixBytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  return h.value();
}

/// Fingerprints the simulation's exporters plus `registries` (in order).
Snapshot Take(Simulation& sim,
              const std::vector<const metrics::Registry*>& registries) {
  Snapshot snap;
  snap.metrics = Hash(sim.MetricsJson());
  snap.timeline = Hash(sim.TimelineJson());
  std::string all;
  for (const metrics::Registry* r : registries) {
    all += r->ToJson(sim.Now());
    all += r->ToCsv(sim.Now());
  }
  snap.registries = Hash(all);
  return snap;
}

std::vector<const metrics::Registry*> RegistriesOf(
    const std::vector<Socket*>& sockets) {
  std::vector<const metrics::Registry*> out;
  for (const Socket* s : sockets) out.push_back(&s->metrics_registry());
  return out;
}

/// Random-sized sends against random-sized MSG_WAITALL receives (so each
/// receive completes full and the delivered bytes land contiguously),
/// with sim-time gaps between posts; verifies the delivered pattern.
void Transfer(Simulation& sim, Socket* tx, Socket* rx, std::uint64_t seed,
              std::uint64_t total = 96 * kKiB,
              std::uint64_t max_piece = 8 * kKiB) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(total), in(total, 0);
  FillPattern(out.data(), out.size(), 0, seed);
  std::uint64_t sent = 0, posted = 0;
  while (sent < total || posted < total) {
    if (posted < total && (sent >= total || rng.NextBool())) {
      std::uint64_t r = std::min(rng.NextInRange(1, max_piece), total - posted);
      rx->Recv(in.data() + posted, r, RecvFlags{.waitall = true});
      posted += r;
    } else {
      std::uint64_t s = std::min(rng.NextInRange(1, max_piece), total - sent);
      tx->Send(out.data() + sent, s);
      sent += s;
    }
    sim.RunFor(static_cast<SimDuration>(
        rng.NextInRange(0, static_cast<std::uint64_t>(Microseconds(20)))));
  }
  sim.Run();
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, seed), in.size());
}

Snapshot RunPair(StreamOptions opts, std::uint64_t seed,
                 SocketType type = SocketType::kStream,
                 std::size_t trace_capacity = 0) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), seed, true);
  auto [client, server] = sim.CreateConnectedPair(type, opts);
  client->EnableTracing(trace_capacity);
  server->EnableTracing(trace_capacity);
  if (type == SocketType::kSeqPacket) {
    // Message-preserving: one receive per message, posted first.
    Rng rng(seed);
    constexpr std::uint64_t kMessages = 64;
    std::vector<std::uint8_t> out(4 * kKiB), in(kMessages * 4 * kKiB);
    FillPattern(out.data(), out.size(), 0, seed);
    for (std::uint64_t m = 0; m < kMessages; ++m) {
      std::uint64_t len = rng.NextInRange(1, out.size());
      server->Recv(in.data() + m * out.size(), out.size());
      client->Send(out.data(), len);
      sim.RunFor(Microseconds(3));
    }
    sim.Run();
  } else {
    Transfer(sim, client, server, seed);
    Transfer(sim, server, client, seed + 1, 24 * kKiB);
  }
  return Take(sim, RegistriesOf({client, server}));
}

Snapshot RunRecovery(std::uint64_t seed) {
  StreamOptions opts;
  opts.recovery.enabled = true;
  opts.intermediate_buffer_bytes = 64 * kKiB;
  Simulation sim(HardwareProfile::FdrInfiniBand(), seed, true);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();
  constexpr std::uint64_t kTotal = 256 * kKiB;
  std::vector<std::uint8_t> out(kTotal), in(kTotal, 0);
  FillPattern(out.data(), out.size(), 0, seed);
  server->Recv(in.data(), kTotal, RecvFlags{.waitall = true});
  for (std::uint64_t off = 0; off < kTotal; off += 16 * kKiB) {
    client->Send(out.data() + off, 16 * kKiB);
  }
  sim.RunFor(Microseconds(30));
  EXPECT_TRUE(client->KillTransport());
  for (int i = 0; i < 1000 && !(client->TransportDead() &&
                                server->TransportDead());
       ++i) {
    sim.RunFor(Microseconds(50));
  }
  Socket::ResumePair(*client, *server);
  sim.Run();
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, seed), in.size());
  return Take(sim, RegistriesOf({client, server}));
}

Snapshot RunMuxed(std::uint64_t seed) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), seed, true);
  MuxOptions mopts;
  mopts.width = 1;
  mopts.per_stream_credits = 1;  // streams park, so mux.* record
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);
  StreamOptions opts;
  opts.credits = 8;
  opts.intermediate_buffer_bytes = 16 * kKiB;
  opts.max_wwi_chunk = 2 * kKiB;
  std::vector<Socket*> sockets;
  for (int s = 0; s < 3; ++s) {
    auto [c, srv] = sim.CreateMuxedPair(g0, g1, opts);
    c->EnableTracing();
    srv->EnableTracing();
    sockets.push_back(c);
    sockets.push_back(srv);
  }
  // Interleave the three streams' transfers on the one shared QP.
  Rng rng(seed);
  constexpr std::uint64_t kTotal = 32 * kKiB;
  std::vector<std::vector<std::uint8_t>> out(3), in(3);
  for (int s = 0; s < 3; ++s) {
    out[s].resize(kTotal);
    in[s].assign(kTotal, 0);
    FillPattern(out[s].data(), kTotal, 0, seed + s);
    sockets[2 * s + 1]->Recv(in[s].data(), kTotal, RecvFlags{.waitall = true});
  }
  for (std::uint64_t off = 0; off < kTotal; off += 4 * kKiB) {
    for (int s = 0; s < 3; ++s) sockets[2 * s]->Send(out[s].data() + off, 4 * kKiB);
    sim.RunFor(static_cast<SimDuration>(
        rng.NextInRange(0, static_cast<std::uint64_t>(Microseconds(10)))));
  }
  sim.Run();
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(VerifyPattern(in[s].data(), kTotal, 0, seed + s), kTotal);
  }
  return Take(sim, RegistriesOf(sockets));
}

Snapshot RunAcceptor(std::uint64_t seed) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), seed, true);
  metrics::Registry engine_registry;
  engine::ProgressEngine progress(sim.fabric().node(1).cpu(),
                                  engine::ProgressEngineOptions{},
                                  &engine_registry);
  engine::AcceptorOptions aopts;
  constexpr std::uint64_t kLease = 16 * kKiB;
  aopts.pool = {.pool_bytes = 2 * kLease, .lease_bytes = kLease};
  aopts.control_slots = 64;
  engine::Acceptor acceptor(sim.device(1), progress, aopts, &engine_registry);
  StreamOptions opts;
  opts.credits = 8;
  opts.intermediate_buffer_bytes = kLease;

  constexpr std::uint64_t kTotal = 48 * kKiB;
  std::vector<Socket*> servers, clients;
  std::vector<std::vector<std::uint8_t>> sinks;
  sinks.reserve(3);
  acceptor.Listen(sim.connections(), 4000, opts,
                  [](Socket&, const Event&) {},
                  [&](Socket& s) {
                    servers.push_back(&s);
                    sinks.emplace_back(kTotal, 0);
                    s.Recv(sinks.back().data(), kTotal,
                           RecvFlags{.waitall = true});
                  });
  // Three connects against a two-lease pool: one is refused.
  for (int i = 0; i < 3; ++i) {
    sim.Connect(0, 4000, SocketType::kStream, opts, [&](Socket* s) {
      if (s != nullptr) clients.push_back(s);
    });
  }
  sim.Run();
  EXPECT_EQ(clients.size(), 2u);
  std::vector<std::uint8_t> out(kTotal);
  FillPattern(out.data(), out.size(), 0, seed);
  for (Socket* c : clients) c->Send(out.data(), kTotal);
  sim.Run();
  for (const auto& sink : sinks) {
    EXPECT_EQ(VerifyPattern(sink.data(), kTotal, 0, seed), kTotal);
  }
  for (Socket* c : clients) c->Close();
  sim.Run();
  std::vector<const metrics::Registry*> registries = RegistriesOf(clients);
  for (const metrics::Registry* r : RegistriesOf(servers)) {
    registries.push_back(r);
  }
  registries.push_back(&engine_registry);
  return Take(sim, registries);
}

std::map<std::string, Snapshot> RunAll() {
  std::map<std::string, Snapshot> out;
  out["classic_dynamic"] = RunPair(StreamOptions{}, 1);
  {
    StreamOptions o;
    o.coalesce.enabled = true;
    out["coalesce"] = RunPair(o, 2);
  }
  {
    StreamOptions o;
    o.rails = 3;
    out["rails3"] = RunPair(o, 3);
  }
  {
    StreamOptions o;
    o.batching.doorbell = true;
    o.batching.max_wrs = 8;
    o.batching.mr_cache_entries = 16;
    out["doorbell_mrcache"] = RunPair(o, 4);
  }
  out["recovery_kill_resume"] = RunRecovery(5);
  out["muxed"] = RunMuxed(6);
  out["acceptor_engine"] = RunAcceptor(7);
  out["seqpacket"] = RunPair(StreamOptions{}, 8, SocketType::kSeqPacket);
  {
    StreamOptions o;
    o.mode = ProtocolMode::kReadRendezvous;
    out["rendezvous"] = RunPair(o, 9);
  }
  out["trace_capacity"] =
      RunPair(StreamOptions{}, 10, SocketType::kStream, /*capacity=*/32);
  return out;
}

std::string Hex(std::uint64_t v) {
  std::ostringstream oss;
  oss << "0x" << std::hex << v;
  return oss.str();
}

std::string Line(const Snapshot& s) {
  return Hex(s.metrics) + " " + Hex(s.timeline) + " " + Hex(s.registries);
}

std::map<std::string, std::string> LoadCorpus() {
  std::map<std::string, std::string> corpus;
  std::ifstream file(kCorpusPath);
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto space = line.find(' ');
    corpus[line.substr(0, space)] = line.substr(space + 1);
  }
  return corpus;
}

TEST(MetricsGolden, SnapshotsMatchCorpus) {
  const bool update = std::getenv("EXS_UPDATE_GOLDEN") != nullptr;
  std::map<std::string, std::string> actual;
  for (const auto& [name, snap] : RunAll()) actual[name] = Line(snap);

  if (update) {
    std::ofstream file(kCorpusPath, std::ios::trunc);
    ASSERT_TRUE(file.good()) << "cannot write " << kCorpusPath;
    file << "# Exporter fingerprints (metrics_golden_test.cpp): "
         << "config metrics timeline registries.\n"
         << "# Regenerate: EXS_UPDATE_GOLDEN=1 ./exs_test "
         << "--gtest_filter='MetricsGolden*'\n";
    for (const auto& [name, line] : actual) file << name << " " << line << "\n";
    GTEST_SKIP() << "corpus regenerated at " << kCorpusPath;
  }

  // Determinism witness: the corpus would pin noise without it.
  std::map<std::string, std::string> again;
  for (const auto& [name, snap] : RunAll()) again[name] = Line(snap);
  ASSERT_EQ(actual, again) << "two identical runs exported differently";

  std::map<std::string, std::string> expected = LoadCorpus();
  ASSERT_FALSE(expected.empty())
      << "missing or empty corpus " << kCorpusPath
      << " — generate it with EXS_UPDATE_GOLDEN=1";
  for (const auto& [name, line] : actual) {
    auto it = expected.find(name);
    if (it == expected.end()) {
      ADD_FAILURE() << "config " << name << " has no corpus entry (got "
                    << line << ")";
      continue;
    }
    EXPECT_EQ(it->second, line)
        << "exporter output changed for " << name
        << " (metrics timeline registries)";
  }
  for (const auto& [name, line] : expected) {
    EXPECT_TRUE(actual.count(name)) << "stale corpus entry " << name;
  }
}

}  // namespace
}  // namespace exs
