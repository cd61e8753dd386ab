// Shared-QP stream multiplexing (exs/mux.hpp): directed pins for the mux
// tier — stream-id demultiplexing under interleaved traffic, the
// per-stream credit window parking bulk streams without starving
// cohabitants, bit-exactness of the classic path when the tier is off,
// mid-flight teardown of a muxed socket, virtual kill/resume of one
// stream on a shared QP, a cohabitant destroyed from inside a dispatch
// round, dispatch wake order checked against a full-rotation scan — plus
// a seeds x profiles x widths property sweep
// asserting that dedicated and muxed transports deliver byte-identical
// per-stream payloads, all under the invariant checker's mux conservation
// rules (CheckMuxGroupPair).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/pattern.hpp"
#include "common/rng.hpp"
#include "exs/engine/acceptor.hpp"
#include "exs/engine/progress_engine.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "exs/mux.hpp"
#include "simnet/faults.hpp"

namespace exs {
namespace {

using simnet::HardwareProfile;

std::uint64_t CounterValue(Socket* s, const char* name, const char* unit) {
  return s->metrics_registry().GetCounter(name, unit).value();
}

/// FNV-1a over delivered bytes — the equality the dedicated-vs-muxed
/// property is stated over (trace fingerprints legitimately differ: the
/// muxed arm shares QPs, so its completion interleaving differs).
std::uint64_t PayloadFnv(const std::uint8_t* data, std::size_t len) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void ExpectCleanChecker(Socket* client, Socket* server) {
  InvariantReport report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.events_checked, 0u);
}

void ExpectCleanMuxPair(const MuxGroup& a, const MuxGroup& b) {
  InvariantReport report = CheckMuxGroupPair(a, b);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.events_checked, 0u);
}

// ---------------------------------------------------------------------------
// Directed pins.
// ---------------------------------------------------------------------------

// Four streams on one shared QP, chunks posted round-robin so their WWIs
// interleave on the wire: every byte must land at the stream that sent it
// (the stream-id demux), with per-stream continuity and conservation
// audited by the checker.
TEST(StreamMuxTest, InterleavedChunksDemuxToOwningStreams) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/41);
  MuxOptions mopts;
  mopts.width = 1;
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);

  constexpr int kStreams = 4;
  constexpr std::uint64_t kChunk = 4 * 1024;
  constexpr int kChunks = 8;
  std::vector<std::pair<Socket*, Socket*>> pairs;
  std::vector<std::vector<std::uint8_t>> out(kStreams), in(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    pairs.push_back(sim.CreateMuxedPair(g0, g1));
    pairs[s].first->EnableTracing();
    pairs[s].second->EnableTracing();
    out[s].resize(kChunks * kChunk);
    in[s].resize(kChunks * kChunk);
    FillPattern(out[s].data(), out[s].size(), 0, 100 + s);
    pairs[s].second->Recv(in[s].data(), in[s].size(),
                          RecvFlags{.waitall = true});
  }
  ASSERT_EQ(sim.device(1).QueuePairsCreated(), mopts.width)
      << "muxed pairs must not create per-stream queue pairs";

  // Round-robin posting: chunk i of every stream is in flight together.
  for (int c = 0; c < kChunks; ++c) {
    for (int s = 0; s < kStreams; ++s) {
      pairs[s].first->Send(out[s].data() + c * kChunk, kChunk);
    }
    sim.RunFor(Microseconds(20));
  }
  sim.Run();

  for (int s = 0; s < kStreams; ++s) {
    EXPECT_EQ(VerifyPattern(in[s].data(), in[s].size(), 0, 100 + s),
              in[s].size())
        << "stream " << s << " delivered another stream's bytes";
    EXPECT_TRUE(pairs[s].first->Quiescent() && pairs[s].second->Quiescent());
    ExpectCleanChecker(pairs[s].first, pairs[s].second);
  }
  EXPECT_GT(g0.stats().data_posted, 0u);
  ExpectCleanMuxPair(g0, g1);
}

// A one-WWI per-stream window: both bulk streams repeatedly exhaust their
// own credit and park while the slot QP itself still has §II-B credits —
// the cohabitant keeps flowing, the parked stream wakes on its completion,
// and the waits are accounted in mux.hol_wait / mux.parks.
TEST(StreamMuxTest, PerStreamCreditExhaustionParksWithoutStarving) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/42);
  MuxOptions mopts;
  mopts.width = 1;
  mopts.per_stream_credits = 1;  // exhausted by every single chunk
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);

  StreamOptions opts;
  opts.max_wwi_chunk = 4 * 1024;  // 24 chunks against a 1-WWI window
  auto [a_tx, a_rx] = sim.CreateMuxedPair(g0, g1, opts);
  auto [b_tx, b_rx] = sim.CreateMuxedPair(g0, g1, opts);
  a_tx->EnableTracing();
  a_rx->EnableTracing();
  b_tx->EnableTracing();
  b_rx->EnableTracing();

  constexpr std::uint64_t kTotal = 96 * 1024;
  std::vector<std::uint8_t> a_out(kTotal), a_in(kTotal);
  std::vector<std::uint8_t> b_out(kTotal), b_in(kTotal);
  FillPattern(a_out.data(), kTotal, 0, 7);
  FillPattern(b_out.data(), kTotal, 0, 8);
  a_rx->Recv(a_in.data(), kTotal, RecvFlags{.waitall = true});
  b_rx->Recv(b_in.data(), kTotal, RecvFlags{.waitall = true});
  a_tx->Send(a_out.data(), kTotal);
  b_tx->Send(b_out.data(), kTotal);

  // The per-stream window must bound outstanding WWIs at every instant,
  // not just at quiescence.
  bool a_parked_seen = false;
  for (int step = 0; step < 4000 && !(a_rx->Quiescent() && b_rx->Quiescent());
       ++step) {
    sim.RunFor(Microseconds(5));
    ASSERT_LE(a_tx->mux_stream()->outstanding(), mopts.per_stream_credits);
    ASSERT_LE(b_tx->mux_stream()->outstanding(), mopts.per_stream_credits);
    a_parked_seen = a_parked_seen || a_tx->mux_stream()->parked();
  }
  sim.Run();

  EXPECT_EQ(VerifyPattern(a_in.data(), kTotal, 0, 7), kTotal);
  EXPECT_EQ(VerifyPattern(b_in.data(), kTotal, 0, 8), kTotal);
  EXPECT_TRUE(a_parked_seen)
      << "a 1-credit window never parked a 96 KiB bulk stream";
  EXPECT_GT(CounterValue(a_tx, "mux.parks", "events"), 0u);
  EXPECT_GT(a_tx->metrics_registry().GetHistogram("mux.hol_wait", "ps").count(),
            0u);
  ExpectCleanChecker(a_tx, a_rx);
  ExpectCleanChecker(b_tx, b_rx);
  ExpectCleanMuxPair(g0, g1);
}

// The tier is strictly opt-in: a classic (dedicated-QP) connection must
// produce the byte-identical trace fingerprint whether or not the same
// simulation hosts connected mux groups with live muxed traffic.  This is
// the "mux off = bit-exact" pin — the wire-format extensions
// (ControlMessage mux fields, the WR mux header) cost classic connections
// nothing.  The mux machinery is created AFTER the classic pair: CQ
// notify-jitter streams are seeded by per-device creation order (a
// pre-existing property independent of this tier — any extra socket
// created first shifts them the same way), and the classic golden-corpus
// suite already pins the classic wire image absolutely.
TEST(StreamMuxTest, MuxOffIsBitIdenticalToClassic) {
  constexpr std::uint64_t kTotal = 64 * 1024;
  auto run_classic = [&](bool with_mux_traffic) {
    Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/43);
    auto [client, server] = sim.CreateConnectedPair(SocketType::kStream);
    client->EnableTracing();
    server->EnableTracing();

    std::unique_ptr<MuxGroup> g0, g1;
    Socket* mux_tx = nullptr;
    Socket* mux_rx = nullptr;
    std::vector<std::uint8_t> mux_out(kTotal), mux_in(kTotal);
    if (with_mux_traffic) {
      MuxOptions mopts;
      mopts.width = 2;
      g0 = std::make_unique<MuxGroup>(sim.device(0), mopts);
      g1 = std::make_unique<MuxGroup>(sim.device(1), mopts);
      MuxGroup::Connect(*g0, *g1);
      std::tie(mux_tx, mux_rx) = sim.CreateMuxedPair(*g0, *g1);
      FillPattern(mux_out.data(), kTotal, 0, 10);
    }

    std::vector<std::uint8_t> out(kTotal), in(kTotal);
    FillPattern(out.data(), kTotal, 0, 9);
    server->Recv(in.data(), kTotal, RecvFlags{.waitall = true});
    client->Send(out.data(), kTotal);
    sim.Run();
    EXPECT_EQ(VerifyPattern(in.data(), kTotal, 0, 9), kTotal);
    EXPECT_FALSE(client->Muxed());
    std::uint64_t fp = ConnectionFingerprint(*client, *server);

    if (with_mux_traffic) {
      // Muxed traffic after the classic stream quiesced: shared links and
      // CPUs, zero effect on the already-recorded classic traces.
      mux_rx->Recv(mux_in.data(), kTotal, RecvFlags{.waitall = true});
      mux_tx->Send(mux_out.data(), kTotal);
      sim.Run();
      EXPECT_EQ(VerifyPattern(mux_in.data(), kTotal, 0, 10), kTotal);
      EXPECT_EQ(fp, ConnectionFingerprint(*client, *server))
          << "muxed traffic mutated a quiesced classic connection's trace";
    }
    return fp;
  };
  std::uint64_t pristine = run_classic(false);
  std::uint64_t cohabiting = run_classic(true);
  EXPECT_EQ(pristine, cohabiting)
      << "coexisting mux machinery perturbed a classic connection's trace";
}

// A muxed socket torn down mid-flight (PR-5 zombie/lease rules): its
// in-flight arrivals become accounted orphans, its send completions drain
// through the slot FIFO as orphan completions, and the cohabitant stream
// on the same slot finishes untouched.  Conservation must still balance.
TEST(StreamMuxTest, MuxedTeardownMidFlightLeavesCohabitantIntact) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/44);
  MuxOptions mopts;
  mopts.width = 1;
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);

  // Built outside the Simulation facade so the test owns the lifetimes.
  SocketWiring wa0, wa1, wc0, wc1;
  wa0.mux_stream = g0.AttachStream(0);
  wa1.mux_stream = g1.AttachStream(0);
  wc0.mux_stream = g0.AttachStream(1);
  wc1.mux_stream = g1.AttachStream(1);
  StreamOptions opts;
  auto a_tx = std::make_unique<Socket>(sim.device(0), SocketType::kStream,
                                       opts, "doomed-tx", std::move(wa0));
  auto a_rx = std::make_unique<Socket>(sim.device(1), SocketType::kStream,
                                       opts, "doomed-rx", std::move(wa1));
  auto c_tx = std::make_unique<Socket>(sim.device(0), SocketType::kStream,
                                       opts, "keeper-tx", std::move(wc0));
  auto c_rx = std::make_unique<Socket>(sim.device(1), SocketType::kStream,
                                       opts, "keeper-rx", std::move(wc1));
  Socket::ConnectPair(*a_tx, *a_rx);
  Socket::ConnectPair(*c_tx, *c_rx);
  c_tx->EnableTracing();
  c_rx->EnableTracing();

  constexpr std::uint64_t kTotal = 64 * 1024;
  std::vector<std::uint8_t> a_out(kTotal), a_in(kTotal);
  std::vector<std::uint8_t> c_out(kTotal), c_in(kTotal);
  FillPattern(a_out.data(), kTotal, 0, 11);
  FillPattern(c_out.data(), kTotal, 0, 12);
  a_rx->Recv(a_in.data(), kTotal, RecvFlags{.waitall = true});
  c_rx->Recv(c_in.data(), kTotal, RecvFlags{.waitall = true});
  a_tx->Send(a_out.data(), kTotal);
  c_tx->Send(c_out.data(), kTotal);
  sim.RunFor(Microseconds(15));  // both streams mid-flight on the slot

  ASSERT_EQ(g0.AttachedStreams(), 2u);
  a_tx.reset();  // chunks and control from/for stream 0 are still in flight
  a_rx.reset();
  EXPECT_EQ(g0.AttachedStreams(), 1u);
  EXPECT_EQ(g1.AttachedStreams(), 1u);
  sim.Run();

  EXPECT_EQ(VerifyPattern(c_in.data(), kTotal, 0, 12), kTotal)
      << "teardown of a cohabitant corrupted the surviving stream";
  EXPECT_TRUE(c_tx->Quiescent() && c_rx->Quiescent());
  // Whatever stream 0 had in flight at teardown is accounted, not lost.
  EXPECT_GT(g1.stats().orphan_drops + g0.stats().orphan_drops +
                g0.stats().orphan_completions + g1.stats().orphan_completions,
            0u)
      << "mid-flight teardown should have produced orphaned traffic";
  ExpectCleanChecker(c_tx.get(), c_rx.get());
  ExpectCleanMuxPair(g0, g1);
}

// Group-before-stream destruction order (either side may die first, the
// ControlSlotSource idiom): a stream outliving its group must go inert,
// not crash.
TEST(StreamMuxTest, StreamOutlivingGroupIsInert) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/45);
  auto g0 = std::make_unique<MuxGroup>(sim.device(0), MuxOptions{});
  auto g1 = std::make_unique<MuxGroup>(sim.device(1), MuxOptions{});
  MuxGroup::Connect(*g0, *g1);
  std::unique_ptr<MuxStream> s = g0->AttachStream(0);
  ASSERT_TRUE(s->GroupAlive());
  g0.reset();
  g1.reset();
  EXPECT_FALSE(s->GroupAlive());
  EXPECT_FALSE(s->CanSend());
  s.reset();  // must not touch the dead group
}

// Virtual kill of one stream on a shared QP: the victim dies with real
// fault semantics (local flush now, peer discovery one ack delay later),
// the cohabitant on the same slot never notices, and kill/resume at the
// delivered frontier (PR-7 recovery) replays the victim to a byte-perfect
// stream.
TEST(StreamMuxTest, KillResumeOnSharedQpLeavesCohabitantUndisturbed) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/46);
  MuxOptions mopts;
  mopts.width = 1;
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);

  StreamOptions opts;
  opts.recovery.enabled = true;
  opts.max_wwi_chunk = 8 * 1024;  // keep chunks in flight around the kill
  auto [a_tx, a_rx] = sim.CreateMuxedPair(g0, g1, opts);
  auto [b_tx, b_rx] = sim.CreateMuxedPair(g0, g1, opts);
  a_tx->EnableTracing();
  a_rx->EnableTracing();
  b_tx->EnableTracing();
  b_rx->EnableTracing();

  constexpr std::uint64_t kTotal = 96 * 1024;
  std::vector<std::uint8_t> a_out(kTotal), a_in(kTotal);
  std::vector<std::uint8_t> b_out(kTotal), b_in(kTotal);
  FillPattern(a_out.data(), kTotal, 0, 21);
  FillPattern(b_out.data(), kTotal, 0, 22);
  a_rx->Recv(a_in.data(), kTotal, RecvFlags{.waitall = true});
  b_rx->Recv(b_in.data(), kTotal, RecvFlags{.waitall = true});
  a_tx->Send(a_out.data(), kTotal);
  b_tx->Send(b_out.data(), kTotal);

  // Kill stream A mid-transfer, in flight on both directions.
  for (int i = 0; i < 100000 && a_rx->stream_rx()->sequence() < 8 * 1024;
       ++i) {
    sim.RunFor(Microseconds(2));
  }
  ASSERT_LT(a_rx->stream_rx()->sequence(), kTotal);
  ASSERT_TRUE(a_tx->KillTransport());
  EXPECT_TRUE(a_tx->TransportDead());
  EXPECT_FALSE(b_tx->TransportDead()) << "virtual kill leaked to a cohabitant";
  EXPECT_FALSE(g0.slot(0).dead()) << "virtual kill killed the shared QP";

  // The peer stream discovers the death with transport timing.
  sim.RunUntil([&] { return a_rx->TransportDead(); });
  EXPECT_FALSE(b_rx->TransportDead());

  Socket::ResumePair(*a_tx, *a_rx);
  sim.Run();

  EXPECT_EQ(VerifyPattern(a_in.data(), kTotal, 0, 21), kTotal)
      << "kill/resume on the shared QP lost or duplicated victim bytes";
  EXPECT_EQ(VerifyPattern(b_in.data(), kTotal, 0, 22), kTotal)
      << "kill/resume of a cohabitant corrupted the undisturbed stream";
  EXPECT_EQ(g0.stats().virtual_kills, 1u);
  EXPECT_EQ(g0.stats().revives, 1u);
  EXPECT_EQ(g1.stats().revives, 1u);
  EXPECT_EQ(CounterValue(a_tx, "recovery.transport_kills", "kills"), 1u);
  EXPECT_EQ(CounterValue(a_tx, "recovery.resumes", "resumes"), 1u);
  ExpectCleanChecker(b_tx, b_rx);
  ExpectCleanMuxPair(g0, g1);
}

// The engine path end to end: a server Acceptor with a QpPool, clients
// connecting with wiring-borne MuxStreams through the real handshake.
// Accepted streams ride the pool's shared QPs; a REQ beyond max_streams is
// refused with the same REJECT as memory pressure.
TEST(StreamMuxTest, AcceptorQpPoolAdmitsOverSharedQps) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/47);
  metrics::Registry registry;
  engine::ProgressEngine engine(sim.fabric().node(1).cpu(),
                                engine::ProgressEngineOptions{});
  StreamOptions opts;
  opts.credits = 8;
  opts.intermediate_buffer_bytes = 16 * 1024;

  engine::AcceptorOptions aopts;
  aopts.pool = {.pool_bytes = 4 * 16 * 1024, .lease_bytes = 16 * 1024};
  aopts.control_slots = 64;
  engine::QpPoolOptions popts;
  popts.mux.width = 2;
  popts.max_streams = 3;  // the fourth muxed connect must be refused
  aopts.mux = popts;
  engine::Acceptor acceptor(sim.device(1), engine, aopts, &registry);
  ASSERT_NE(acceptor.qp_pool(), nullptr);

  // The client side keeps its own group, wired to the pool's once.
  MuxGroup client_group(sim.device(0), popts.mux);
  MuxGroup::Connect(client_group, acceptor.qp_pool()->group());
  const std::uint64_t qps_before = sim.device(1).QueuePairsCreated();

  constexpr std::uint64_t kTotal = 8 * 1024;
  struct Rx {
    std::vector<std::uint8_t> data;
    std::uint64_t received = 0;
  };
  std::vector<std::unique_ptr<Rx>> rxs;
  acceptor.Listen(
      sim.connections(), 4000, opts,
      [&](Socket&, const Event&) {},
      [&](Socket& s) {
        auto rx = std::make_unique<Rx>();
        rx->data.resize(kTotal);
        s.Recv(rx->data.data(), kTotal, RecvFlags{.waitall = true});
        rxs.push_back(std::move(rx));
      });

  std::vector<Socket*> clients;
  int rejected = 0;
  for (int i = 0; i < 4; ++i) {
    std::uint32_t id = client_group.AllocateStreamId();
    SocketWiring wiring;
    wiring.mux_stream = client_group.AttachStream(id);
    sim.Connect(0, 4000, SocketType::kStream, opts, std::move(wiring),
                [&](Socket* s) {
                  if (s == nullptr) {
                    ++rejected;
                  } else {
                    clients.push_back(s);
                  }
                });
    sim.Run();  // complete each handshake before the next REQ
  }
  ASSERT_EQ(clients.size(), 3u);
  EXPECT_EQ(rejected, 1);
  EXPECT_EQ(acceptor.qp_pool()->AdmissionRefusals(), 1u);
  EXPECT_EQ(acceptor.qp_pool()->LiveStreams(), 3u);
  EXPECT_EQ(sim.device(1).QueuePairsCreated(), qps_before)
      << "accepting muxed connections must not create queue pairs";

  std::vector<std::vector<std::uint8_t>> outs;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    outs.emplace_back(kTotal);
    FillPattern(outs[i].data(), kTotal, 0, 300 + i);
    clients[i]->Send(outs[i].data(), kTotal);
  }
  sim.Run();
  ASSERT_EQ(rxs.size(), 3u);
  for (std::size_t i = 0; i < rxs.size(); ++i) {
    EXPECT_EQ(VerifyPattern(rxs[i]->data.data(), kTotal, 0, 300 + i), kTotal)
        << "engine-accepted muxed stream " << i;
  }
  ExpectCleanMuxPair(client_group, acceptor.qp_pool()->group());
}

// ---------------------------------------------------------------------------
// Dispatch rounds, driven stream by stream.
// ---------------------------------------------------------------------------

/// One shared slot carrying raw MuxStreams, no sockets, so a test decides
/// when each stream parks (CanSend() on a dry slot), when it sends (one
/// control message, which unparks it) and what it does when woken.  Node
/// 0's streams send; node 1's streams only return credits, and Kick() has
/// one of them send a control message so its owed credits — and hence a
/// node-0 dispatch round — come back on demand.
class SlotScript {
 public:
  explicit SlotScript(std::uint32_t qp_credits)
      : sim_(HardwareProfile::FdrInfiniBand(), /*seed=*/48) {
    MuxOptions mopts;
    mopts.width = 1;
    mopts.qp_credits = qp_credits;
    g0_ = std::make_unique<MuxGroup>(sim_.device(0), mopts);
    g1_ = std::make_unique<MuxGroup>(sim_.device(1), mopts);
    MuxGroup::Connect(*g0_, *g1_);
  }

  /// Called from a node-0 stream's on_credit_available.
  std::function<void(std::uint32_t)> on_wake;
  /// Called after each attach / detach, in rotation terms.
  std::function<void(std::uint32_t)> on_attach;
  std::function<void()> on_detach;

  std::uint32_t Attach() {
    std::uint32_t id = g0_->AllocateStreamId();
    std::unique_ptr<MuxStream> tx = g0_->AttachStream(id);
    ChannelEndpoint::Callbacks cb;
    cb.on_credit_available = [this, id] { on_wake(id); };
    tx->set_callbacks(std::move(cb));
    tx_[id] = std::move(tx);
    rx_[id] = g1_->AttachStream(id);
    if (on_attach) on_attach(id);
    return id;
  }

  void Detach(std::uint32_t id) {
    tx_.erase(id);
    rx_.erase(id);
    if (on_detach) on_detach();
  }

  /// Send one control message from node-0 stream `id` if it may; a stream
  /// that may not is parked by the refusal, as a socket pump's would be.
  bool TrySend(std::uint32_t id) {
    MuxStream* s = tx_.at(id).get();
    if (!s->CanSend()) return false;
    wire::ControlMessage msg;
    msg.type = static_cast<std::uint8_t>(wire::ControlType::kAck);
    s->SendControl(msg);
    return true;
  }

  /// Spend the slot's shared credits from randomly chosen live streams.
  void Drain(Rng& rng) {
    std::vector<std::uint32_t> live = LiveIds();
    while (!live.empty() && g0_->slot(0).CanSend()) {
      TrySend(live[rng.NextBelow(live.size())]);
    }
  }

  /// Return node 1's owed credits by piggyback, if it can send.
  void Kick() {
    for (auto& [id, rx] : rx_) {
      if (rx->dead()) continue;
      if (rx->CanSend()) {
        wire::ControlMessage msg;
        msg.type = static_cast<std::uint8_t>(wire::ControlType::kAck);
        rx->SendControl(msg);
      }
      return;
    }
  }

  bool SlotDry() const {
    return g0_->slot(0).dead() || !g0_->slot(0).CanSend();
  }

  std::vector<std::uint32_t> Ids() const {
    return IdsWhere([](const MuxStream&) { return true; });
  }
  std::vector<std::uint32_t> LiveIds() const {
    return IdsWhere([](const MuxStream& s) { return !s.dead(); });
  }
  std::vector<std::uint32_t> DeadIds() const {
    return IdsWhere([](const MuxStream& s) { return s.dead(); });
  }

  Simulation& sim() { return sim_; }
  MuxGroup& g0() { return *g0_; }
  MuxGroup& g1() { return *g1_; }
  MuxStream* tx(std::uint32_t id) { return tx_.at(id).get(); }
  const std::map<std::uint32_t, std::unique_ptr<MuxStream>>& streams() const {
    return tx_;
  }

 private:
  template <typename Pred>
  std::vector<std::uint32_t> IdsWhere(Pred pred) const {
    std::vector<std::uint32_t> ids;
    for (const auto& [id, s] : tx_) {
      if (pred(*s)) ids.push_back(id);
    }
    return ids;
  }

  Simulation sim_;
  std::unique_ptr<MuxGroup> g0_, g1_;
  std::map<std::uint32_t, std::unique_ptr<MuxStream>> tx_, rx_;
};

// A woken stream's pump destroys cohabitants mid-round, enough of them to
// cross the rotation's compaction threshold.  Compaction must wait for the
// round to end: the round goes on to wake each surviving parked stream
// exactly once and never a destroyed one, and the next round walks the
// compacted rotation from its head.
TEST(StreamMuxTest, CohabitantDestroyedMidRoundDefersCompaction) {
  SlotScript script(/*qp_credits=*/8);
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(script.Attach());
  std::vector<std::uint32_t> woken;
  script.on_wake = [&](std::uint32_t id) {
    woken.push_back(id);
    // The first wake tears down five of its seven cohabitants — the last
    // stream in the rotation among them — leaving ids[3] and ids[5].
    if (woken.size() == 1) {
      for (std::size_t i : {1, 2, 4, 6, 7}) script.Detach(ids[i]);
    }
  };

  Rng rng(3);
  script.Drain(rng);
  for (std::uint32_t id : ids) EXPECT_FALSE(script.TrySend(id));
  for (std::uint32_t id : ids) ASSERT_TRUE(script.tx(id)->parked());
  script.sim().Run();

  EXPECT_EQ(woken, (std::vector<std::uint32_t>{ids[0], ids[3], ids[5]}));
  EXPECT_EQ(script.g0().AttachedStreams(), 3u);

  // Still parked, so the next round wakes all three in rotation order.
  woken.clear();
  script.Kick();
  script.sim().Run();
  EXPECT_EQ(woken, (std::vector<std::uint32_t>{ids[0], ids[3], ids[5]}));
  EXPECT_EQ(script.g0().stats().dispatch_wakes, 6u);
  ExpectCleanMuxPair(script.g0(), script.g1());
}

/// The dispatch rotation as the full scan walks it — every attached stream
/// in attach order, each looked up and tested for being parked and live —
/// kept in lockstep with a MuxGroup slot.  Round starts are external
/// (credit arrivals), so the reference learns of them from the group's
/// dispatch_rounds; everything a round then does — which streams it wakes
/// in which order, where it stops and where the next round starts — it
/// predicts itself.  Detached ids stay in the rotation until holes
/// outnumber streams; compaction waits for the end of a round.
class FullScanReference {
 public:
  explicit FullScanReference(SlotScript& script) : script_(script) {}

  void Attach(std::uint32_t id) { rotation_.push_back(id); }
  void Detach() {
    ++holes_;
    if (!open_) MaybeCompact();
  }

  /// The group woke `id` during its round number `group_round`.
  void Wake(std::uint32_t id, std::uint64_t group_round) {
    if (!open_) {
      CatchUp(group_round - 1);
      ++rounds_;
      open_ = true;
      n_ = rotation_.size();
      start_ = cursor_ % n_;
      k_ = 0;
    }
    std::optional<std::uint32_t> expect = Scan();
    predicted_.push_back({rounds_, expect.value_or(kNone)});
    woken_.push_back({group_round, id});
    ++wakes_;
    if (!expect) open_ = false;  // a wake the scan has no stream for
  }

  /// The woken stream's pump returned; `slot_dry` is the group's mid-round
  /// exit test.
  void AfterWake(bool slot_dry) {
    if (!open_) return;
    if (slot_dry) {
      cursor_ = ((start_ + k_) % n_ + 1) % n_;
      ++early_exits_;
      Close();
      return;
    }
    ++k_;
    if (!Scan()) {
      cursor_ = (start_ + 1) % n_;
      Close();
    }
  }

  /// Account the group's rounds up to `group_rounds` that woke nobody:
  /// each must have found nothing parked, and moves the cursor by one.
  /// Nothing parks between rounds without a script step, so "now" is
  /// what those rounds saw.
  void CatchUp(std::uint64_t group_rounds) {
    while (rounds_ < group_rounds) {
      ++rounds_;
      ++idle_rounds_;
      for (std::uint32_t id : rotation_) {
        if (Parked(id)) ++idle_rounds_with_parked_;
      }
      cursor_ = (cursor_ % rotation_.size() + 1) % rotation_.size();
    }
  }

  bool open() const { return open_; }
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t wakes() const { return wakes_; }
  std::uint64_t early_exits() const { return early_exits_; }
  std::uint64_t idle_rounds() const { return idle_rounds_; }
  std::uint64_t idle_rounds_with_parked() const {
    return idle_rounds_with_parked_;
  }
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t deferred_compactions() const { return deferred_; }
  /// (round, stream) per wake: what the group did, what the scan predicts.
  const std::vector<std::pair<std::uint64_t, std::uint32_t>>& woken() const {
    return woken_;
  }
  const std::vector<std::pair<std::uint64_t, std::uint32_t>>& predicted()
      const {
    return predicted_;
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  bool Parked(std::uint32_t id) const {
    auto it = script_.streams().find(id);
    return it != script_.streams().end() && it->second->parked() &&
           !it->second->dead();
  }
  /// Advance the open round to its next parked stream, if any.
  std::optional<std::uint32_t> Scan() {
    for (; k_ < n_; ++k_) {
      std::uint32_t id = rotation_[(start_ + k_) % n_];
      if (Parked(id)) return id;
    }
    return std::nullopt;
  }
  void Close() {
    open_ = false;
    if (holes_ * 2 > rotation_.size()) ++deferred_;
    MaybeCompact();
  }
  void MaybeCompact() {
    if (holes_ * 2 <= rotation_.size()) return;
    std::erase_if(rotation_, [this](std::uint32_t id) {
      return script_.streams().count(id) == 0;
    });
    holes_ = 0;
    cursor_ = 0;
    ++compactions_;
  }

  SlotScript& script_;
  std::vector<std::uint32_t> rotation_;
  std::size_t holes_ = 0;
  std::size_t cursor_ = 0;
  bool open_ = false;
  std::size_t n_ = 0, start_ = 0, k_ = 0;  ///< the open round
  std::uint64_t rounds_ = 0, wakes_ = 0, early_exits_ = 0, idle_rounds_ = 0;
  std::uint64_t idle_rounds_with_parked_ = 0, compactions_ = 0, deferred_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> woken_, predicted_;
};

// ~200 streams on one slot follow a seeded script of parks, unparks,
// virtual kills, revives, attaches and detaches — between rounds and from
// inside woken pumps — and the group's wakes must match the full-rotation
// scan's wake for wake, round for round.
TEST(StreamMuxTest, DispatchWakesMatchFullRotationScan) {
  SlotScript script(/*qp_credits=*/32);
  FullScanReference ref(script);
  script.on_attach = [&](std::uint32_t id) { ref.Attach(id); };
  script.on_detach = [&] { ref.Detach(); };
  Rng rng(0x5eed);

  auto pick = [&](const std::vector<std::uint32_t>& ids) {
    return ids[rng.NextBelow(ids.size())];
  };
  script.on_wake = [&](std::uint32_t self) {
    ref.Wake(self, script.g0().stats().dispatch_rounds);
    EXPECT_EQ(script.g0().stats().dispatch_wakes, ref.wakes());
    double u = rng.NextDouble();
    if (u < 0.45) {
      script.TrySend(self);  // unpark; may run the slot dry
      if (rng.NextBool(0.3)) script.TrySend(self);
    }
    std::vector<std::uint32_t> live = script.LiveIds();
    if (!live.empty() && rng.NextBool(0.15)) {
      // Mid-round park: a stream without deficit is refused, ahead of the
      // scan or behind it.
      script.tx(pick(live))->CanSend();
    }
    if (!live.empty() && rng.NextBool(0.05)) script.tx(pick(live))->Kill();
    std::vector<std::uint32_t> dead = script.DeadIds();
    if (!dead.empty() && rng.NextBool(0.05)) script.tx(pick(dead))->Revive();
    if (rng.NextBool(0.08)) {
      std::uint32_t victim = pick(script.Ids());  // never empty: self
      if (victim != self) script.Detach(victim);
    }
    if (rng.NextBool(0.03)) script.tx(script.Attach())->CanSend();
    ref.AfterWake(script.SlotDry());
  };

  for (int i = 0; i < 200; ++i) script.Attach();
  for (int step = 0; step < 120; ++step) {
    for (std::uint64_t i = rng.NextBelow(4); i > 0; --i) script.Attach();
    for (std::uint64_t i = rng.NextBelow(7); i > 0; --i) {
      std::vector<std::uint32_t> ids = script.LiveIds();
      if (ids.size() > 8) script.Detach(pick(ids));
    }
    for (std::uint64_t i = rng.NextBelow(3); i > 0; --i) {
      std::vector<std::uint32_t> live = script.LiveIds();
      if (!live.empty()) script.tx(pick(live))->Kill();
    }
    for (std::uint64_t i = rng.NextBelow(3); i > 0; --i) {
      std::vector<std::uint32_t> dead = script.DeadIds();
      if (!dead.empty()) script.tx(pick(dead))->Revive();
    }
    script.Drain(rng);
    for (std::uint32_t id : script.LiveIds()) {
      if (rng.NextBool(0.4)) script.TrySend(id);  // refused: parks
    }
    script.Kick();
    script.sim().Run();
    EXPECT_FALSE(ref.open()) << "step " << step
                             << ": the scan predicts a wake the group "
                                "never made";
    ref.CatchUp(script.g0().stats().dispatch_rounds);
  }

  EXPECT_EQ(ref.woken(), ref.predicted());
  EXPECT_EQ(script.g0().stats().dispatch_rounds, ref.rounds());
  EXPECT_EQ(script.g0().stats().dispatch_wakes, ref.wakes());
  EXPECT_EQ(ref.idle_rounds_with_parked(), 0u);
  // The script reached every path the equivalence is about.
  EXPECT_GT(ref.wakes(), 1000u);
  EXPECT_GT(ref.early_exits(), 0u);
  EXPECT_GT(ref.idle_rounds(), 0u);
  EXPECT_GT(ref.compactions(), 1u);
  EXPECT_GT(ref.deferred_compactions(), 0u);
  EXPECT_GT(script.g0().stats().virtual_kills, 0u);
  EXPECT_GT(script.g0().stats().revives, 0u);
  ExpectCleanMuxPair(script.g0(), script.g1());
}

// ---------------------------------------------------------------------------
// Property sweep: dedicated and muxed transports are payload-equivalent.
// ---------------------------------------------------------------------------

struct SweepConfig {
  std::uint64_t seed;
  const char* profile;  // "fdr" | "wan"
  int streams;
  std::uint32_t width;  // muxed arm's slot count
};

HardwareProfile SweepProfile(const std::string& name) {
  if (name == "wan") {
    return HardwareProfile::RoCE10GWithDelay(Milliseconds(24));
  }
  return HardwareProfile::FdrInfiniBand();
}

/// One arm of the property: run `streams` concurrent one-direction
/// transfers with a seed-derived interleave, dedicated or muxed, and
/// return the per-stream delivered-payload FNV fingerprints.  Checker
/// must be clean in both arms.
std::vector<std::uint64_t> RunSweepArm(const SweepConfig& cfg, bool muxed) {
  Simulation sim(SweepProfile(cfg.profile), cfg.seed);
  std::unique_ptr<MuxGroup> g0, g1;
  if (muxed) {
    MuxOptions mopts;
    mopts.width = cfg.width;
    g0 = std::make_unique<MuxGroup>(sim.device(0), mopts);
    g1 = std::make_unique<MuxGroup>(sim.device(1), mopts);
    MuxGroup::Connect(*g0, *g1);
  }

  const std::uint64_t per_stream = 24 * 1024;
  std::vector<std::pair<Socket*, Socket*>> pairs;
  std::vector<std::vector<std::uint8_t>> out(cfg.streams), in(cfg.streams);
  for (int s = 0; s < cfg.streams; ++s) {
    pairs.push_back(muxed
                        ? sim.CreateMuxedPair(*g0, *g1)
                        : sim.CreateConnectedPair(SocketType::kStream));
    pairs[s].first->EnableTracing();
    pairs[s].second->EnableTracing();
    out[s].resize(per_stream);
    in[s].resize(per_stream);
    FillPattern(out[s].data(), per_stream, 0, cfg.seed * 1000 + s);
    pairs[s].second->Recv(in[s].data(), per_stream,
                          RecvFlags{.waitall = true});
  }

  // Identical seed-derived posting interleave in both arms: the payload
  // byte streams must match chunk for chunk regardless of transport.
  Rng rng(SplitMix64(cfg.seed ^ 0x3a6d0f5b9ull).Next());
  std::vector<std::uint64_t> sent(cfg.streams, 0);
  bool remaining = true;
  while (remaining) {
    remaining = false;
    for (int s = 0; s < cfg.streams; ++s) {
      if (sent[s] >= per_stream) continue;
      std::uint64_t n = rng.NextInRange(1, 6 * 1024);
      if (n > per_stream - sent[s]) n = per_stream - sent[s];
      pairs[s].first->Send(out[s].data() + sent[s], n);
      sent[s] += n;
      remaining = remaining || sent[s] < per_stream;
    }
    sim.RunFor(static_cast<SimDuration>(
        rng.NextInRange(0, static_cast<std::uint64_t>(Microseconds(40)))));
  }
  sim.Run();

  std::vector<std::uint64_t> fps;
  for (int s = 0; s < cfg.streams; ++s) {
    EXPECT_TRUE(pairs[s].first->Quiescent() && pairs[s].second->Quiescent())
        << (muxed ? "muxed" : "dedicated") << " stream " << s << " seed "
        << cfg.seed;
    InvariantReport report =
        CheckConnection(*pairs[s].first, *pairs[s].second);
    EXPECT_TRUE(report.ok())
        << (muxed ? "muxed" : "dedicated") << " stream " << s << " seed "
        << cfg.seed << ": " << report.Summary();
    fps.push_back(PayloadFnv(in[s].data(), per_stream));
  }
  if (muxed) {
    InvariantReport report = CheckMuxGroupPair(*g0, *g1);
    EXPECT_TRUE(report.ok()) << "seed " << cfg.seed << ": "
                             << report.Summary();
  }
  return fps;
}

TEST(StreamMuxPropertyTest, DedicatedAndMuxedDeliverIdenticalPayloads) {
  std::vector<SweepConfig> sweep;
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    for (const char* profile : {"fdr", "wan"}) {
      // Width and stream count derived from the seed, ids crossing slots.
      std::uint64_t bits = SplitMix64(seed ^ 0x9e3779b97f4a7c15ull).Next();
      sweep.push_back(SweepConfig{seed, profile,
                                  /*streams=*/2 + static_cast<int>(bits % 5),
          /*width=*/static_cast<std::uint32_t>(1 + (bits >> 8) % 3)});
    }
  }
  for (const SweepConfig& cfg : sweep) {
    SCOPED_TRACE(std::string("seed ") + std::to_string(cfg.seed) + " " +
                 cfg.profile + " streams " + std::to_string(cfg.streams) +
                 " width " + std::to_string(cfg.width));
    std::vector<std::uint64_t> dedicated = RunSweepArm(cfg, /*muxed=*/false);
    std::vector<std::uint64_t> muxed = RunSweepArm(cfg, /*muxed=*/true);
    ASSERT_EQ(dedicated.size(), muxed.size());
    for (std::size_t s = 0; s < dedicated.size(); ++s) {
      EXPECT_EQ(dedicated[s], muxed[s])
          << "stream " << s
          << ": muxed transport delivered different bytes than dedicated";
    }
  }
}

}  // namespace
}  // namespace exs
