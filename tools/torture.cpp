#include "torture.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/pattern.hpp"
#include "common/rng.hpp"
#include "exs/engine/acceptor.hpp"
#include "exs/engine/progress_engine.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "exs/loadgen/workload.hpp"
#include "exs/mux.hpp"
#include "exs/rpc/kv_server.hpp"
#include "exs/rpc/rpc_client.hpp"
#include "simnet/faults.hpp"
#include "verbs/types.hpp"

namespace exs::torture {

simnet::HardwareProfile ResolveProfile(const std::string& name) {
  if (name == "fdr") return simnet::HardwareProfile::FdrInfiniBand();
  if (name == "iwarp") return simnet::HardwareProfile::Iwarp10G();
  if (name == "wan") {
    // The paper's distance experiment: RoCE through 48 ms of emulated RTT.
    return simnet::HardwareProfile::RoCE10GWithDelay(Milliseconds(24));
  }
  EXS_CHECK_MSG(false, "unknown profile '" << name
                                           << "' (expected fdr|iwarp|wan)");
  return simnet::HardwareProfile::FdrInfiniBand();  // unreachable
}

std::string TortureResult::Describe() const {
  std::ostringstream oss;
  oss << (ok ? "PASS" : "FAIL") << " fp=0x" << std::hex << fingerprint
      << std::dec << " events=" << events_checked
      << " faults=" << faults_applied << "/" << faults_armed;
  if (kills_applied != 0 || resumes != 0) {
    oss << " kills=" << kills_applied << " resumes=" << resumes;
  }
  for (const auto& f : failures) oss << "\n    failure: " << f;
  for (const auto& v : checker_violations) oss << "\n    invariant: " << v;
  for (const auto& w : checker_warnings) oss << "\n    warning: " << w;
  return oss.str();
}

namespace {

/// Rough upper bound on when protocol activity happens, used to place
/// fault windows.  Overshoot is harmless (a window opening after the run
/// quiesces perturbs nothing); undershoot just concentrates faults early.
SimDuration EstimateHorizon(const simnet::HardwareProfile& p,
                            std::uint64_t total_bytes) {
  SimDuration wire = p.link_bandwidth.TransmissionTime(total_bytes);
  SimDuration rtt = 2 * (p.propagation + p.netem.extra_delay);
  return wire * 8 + rtt * 16 + Microseconds(500);
}

/// Workload RNG seed, domain-separated from the fault plan, the fabric and
/// every mode's shape bits.  Every driver draws its interleave from it.
std::uint64_t WorkloadSeed(std::uint64_t seed) {
  return SplitMix64(seed ^ 0x70e7f1c70ffe12edull).Next();
}

/// The seed-shape pick: `pinned` when a flag or corpus key fixed the axis,
/// otherwise one of three choices by `bits % 3`.
std::uint32_t Pick(std::uint32_t pinned, std::uint64_t bits, std::uint32_t a,
                   std::uint32_t b, std::uint32_t c) {
  if (pinned != 0) return pinned;
  return bits % 3 == 0 ? a : bits % 3 == 1 ? b : c;
}

std::string Stuck(std::uint64_t done, std::uint64_t total) {
  return "no progress: stuck at " + std::to_string(done) + "/" +
         std::to_string(total) + " bytes";
}

// ---------------------------------------------------------------------------
// Shapes: everything a mode derives from its seed before driving.  Each mode
// draws its shape bits from its own domain-separated SplitMix64 stream, so
// the shape never perturbs the fault plan or the workload RNG.
// ---------------------------------------------------------------------------

struct Shape {
  simnet::HardwareProfile profile;
  StreamOptions opts;
  bool seqpacket = false;              ///< pair: message socket
  std::uint32_t sendv_arity = 0;       ///< pair: slices per Sendv (0 = Send)
  std::uint32_t streams = 0;           ///< fan-out: streams or RPC clients
  MuxOptions mux;                      ///< mux/rpc: the shared slot pool
  std::uint32_t calls_per_client = 0;  ///< rpc: call train length
  simnet::FaultEvent kill;             ///< kill: the killed leg's fatal kill
};

/// The transient fault plan of a run moving `bytes`: a pure function of
/// the seed and the run's horizon, or empty under --no-faults.
simnet::FaultPlan Plan(const TortureConfig& cfg, const Shape& shape,
                       std::uint64_t bytes) {
  if (!cfg.enable_faults) return {};
  return simnet::FaultPlan::Generate(
      cfg.seed, simnet::FaultPlanConfig::ScaledTo(
                    EstimateHorizon(shape.profile, bytes)));
}

/// What every mode shares: the profile, the ring size, and the test-only
/// sabotage hooks (every mode honours them).  "dynamic" is exactly this.
Shape Base(const TortureConfig& cfg) {
  Shape s;
  s.profile = ResolveProfile(cfg.profile);
  s.opts.intermediate_buffer_bytes = cfg.buffer_bytes;
  s.opts.sabotage.accept_stale_adverts = cfg.sabotage_stale_adverts;
  s.opts.sabotage.advertise_without_gate = cfg.sabotage_advert_gate;
  return s;
}

Shape Direct(const TortureConfig& cfg) {
  Shape s = Base(cfg);
  s.opts.mode = ProtocolMode::kDirectOnly;
  return s;
}

Shape Indirect(const TortureConfig& cfg) {
  Shape s = Base(cfg);
  s.opts.mode = ProtocolMode::kIndirectOnly;
  return s;
}

/// "coalesce" is the dynamic algorithm with the small-transfer staging
/// buffer and ACK piggyback armed — the corpus round-trips it through the
/// existing mode key.
Shape Coalesce(const TortureConfig& cfg) {
  Shape s = Base(cfg);
  s.opts.coalesce.enabled = true;
  return s;
}

/// "seqpacket": the message socket.
Shape SeqPacket(const TortureConfig& cfg) {
  Shape s = Base(cfg);
  s.seqpacket = true;
  return s;
}

/// Multi-rail striping, shared by "stripe" and kill's striped variant:
/// bit 0 of `bits` picks 2 or 4 rails and bit 1 the round-robin scheduler,
/// unless cfg.rails / cfg.sched pin them so a corpus line replays the exact
/// configuration.  Striped chunks should actually spread: bound the chunk
/// size so even a single large send becomes several WWIs.
void ArmStriping(const TortureConfig& cfg, std::uint64_t bits,
                 StreamOptions* opts) {
  opts->rails = cfg.rails != 0 ? cfg.rails : ((bits & 1) != 0 ? 2u : 4u);
  const std::string sched =
      !cfg.sched.empty() ? cfg.sched : ((bits & 2) != 0 ? "rr" : "adaptive");
  EXS_CHECK_MSG(sched == "rr" || sched == "adaptive",
                "unknown rail scheduler '" << sched << "'");
  opts->rail_scheduler = sched == "rr" ? RailScheduler::kRoundRobin
                                       : RailScheduler::kShortestOutstanding;
  opts->max_wwi_chunk = 16 * 1024;
}

/// "stripe": the seed picks the point in the {2,4 rails} ×
/// {dynamic,indirect} × {rr,adaptive} cube.
Shape Stripe(const TortureConfig& cfg) {
  Shape s = Base(cfg);
  std::uint64_t bits = SplitMix64(cfg.seed ^ 0x57a1be5c0de4a115ull).Next();
  ArmStriping(cfg, bits, &s.opts);
  if ((bits & 4) != 0) s.opts.mode = ProtocolMode::kIndirectOnly;
  return s;
}

/// "batch" arms the whole hot-path batching stack — coalescing with
/// gather-list (sendv) aggregation, doorbell batching, and the MR
/// registration cache — and drives sends through vectored Sendv.  The seed
/// picks the batch depth {2,4,8} and Sendv arity {1,2,4} unless
/// cfg.batch / cfg.arity pin them; the checker additionally audits per-rail
/// gather-byte and doorbell conservation.
Shape Batch(const TortureConfig& cfg) {
  Shape s = Base(cfg);
  std::uint64_t bits = SplitMix64(cfg.seed ^ 0xba7c4d00bbe11ull).Next();
  s.sendv_arity = Pick(cfg.arity, bits >> 2, 1, 2, 4);
  EXS_CHECK_MSG(s.sendv_arity >= 1 && s.sendv_arity <= verbs::kMaxSge,
                "sendv arity out of [1, kMaxSge]");
  s.opts.coalesce.enabled = true;
  s.opts.batching.doorbell = true;
  s.opts.batching.max_wrs = Pick(cfg.batch, bits, 2, 4, 8);
  s.opts.batching.sendv_aggregation = true;
  s.opts.batching.mr_cache_entries = 32;
  // Batched CQ dispatch: {1, 4, 16} completions per CPU pass, so the
  // completion-clocked refills also exercise the clumped-post path.
  s.opts.batching.cq_drain = Pick(0, bits >> 5, 1, 4, 16);
  // Small chunks so a single posting becomes several WRs per pump pass
  // — otherwise the doorbell batch never fills.
  s.opts.max_wwi_chunk = 16 * 1024;
  return s;
}

/// "kill": the recovery equivalence harness.  The recovery path must hold
/// under every chunking discipline, so the seed rotates classic dynamic,
/// coalesce, and striped streams (pinning cfg.rails forces striping), and
/// places one fatal QP kill at a seed-derived (or pinned) permille of the
/// fault horizon.
Shape Kill(const TortureConfig& cfg) {
  Shape s = Base(cfg);
  std::uint64_t bits = SplitMix64(cfg.seed ^ 0x4b111f7e57a7e5ull).Next();
  s.opts.recovery.enabled = true;
  const std::uint64_t variant = cfg.rails != 0 ? 2 : bits % 3;
  if (variant == 1) s.opts.coalesce.enabled = true;
  if (variant == 2) ArmStriping(cfg, bits >> 2, &s.opts);
  const std::uint32_t permille =
      cfg.kill_permille != 0
          ? cfg.kill_permille
          : static_cast<std::uint32_t>(50 + (bits >> 8) % 350);
  s.kill.kind = simnet::FaultKind::kQpKill;
  s.kill.target = bits & 1;
  s.kill.at = static_cast<SimTime>(
      EstimateHorizon(s.profile, cfg.total_bytes) / 1000 * permille);
  return s;
}

/// "many": the server engine.  N clients {4,8,16} connect through the
/// acceptor into one shared buffer pool / SRQ slot pool; the inner mode
/// either forces every byte through the leased rings (indirect) or lets
/// ADVERTs bypass them (dynamic).
Shape Many(const TortureConfig& cfg) {
  Shape s = Base(cfg);
  std::uint64_t bits = SplitMix64(cfg.seed ^ 0x9a11e57e4e61e4ull).Next();
  s.streams = Pick(cfg.streams, bits, 4, 8, 16);
  s.opts.credits = 8;
  if ((bits & 8) != 0) s.opts.mode = ProtocolMode::kIndirectOnly;
  return s;
}

/// "mux": the shared-QP multiplexing tier.  N streams {4,8,16} ride a
/// MuxGroup slot pool {1,2,4} queue pairs wide per endpoint, with a
/// seed-derived per-stream window and inner mode.
Shape Mux(const TortureConfig& cfg) {
  Shape s = Base(cfg);
  std::uint64_t bits = SplitMix64(cfg.seed ^ 0x3f9c2e57b8a4d1ull).Next();
  s.streams = Pick(cfg.streams, bits, 4, 8, 16);
  s.mux.width = Pick(cfg.width, bits >> 8, 1, 2, 4);
  s.mux.qp_credits = 64;
  s.mux.per_stream_credits = Pick(0, bits >> 4, 2, 4, 8);
  // Bound the chunk size so bulk sends become several WWIs and the
  // per-stream window actually parks streams (otherwise a whole direct
  // transfer is one WWI and the DRR layer never engages).
  s.opts.max_wwi_chunk = 8 * 1024;
  if ((bits & 8) != 0) s.opts.mode = ProtocolMode::kIndirectOnly;
  return s;
}

/// "rpc": the RPC/KV tier.  N clients {4,8,16} over a slot pool {1,2,4}
/// wide, each issuing a train of {24,48,96} calls, with token-sized
/// per-stream state (the mux tier's operating point).
Shape Rpc(const TortureConfig& cfg) {
  Shape s = Base(cfg);
  std::uint64_t bits = SplitMix64(cfg.seed ^ 0x59c4a11e57e21ull).Next();
  s.streams = Pick(cfg.streams, bits, 4, 8, 16);
  s.mux.width = Pick(cfg.width, bits >> 8, 1, 2, 4);
  s.calls_per_client = Pick(0, bits >> 16, 24, 48, 96);
  s.opts.credits = 8;
  s.opts.intermediate_buffer_bytes = 2 * 1024;
  s.opts.max_wwi_chunk = 2 * 1024;
  return s;
}

// ---------------------------------------------------------------------------
// Shared tails.
// ---------------------------------------------------------------------------

/// The result tail every driver shares.  It accumulates, so kill's two
/// legs fold into one result.
void Finish(TortureResult* res, const InvariantReport& report,
            const simnet::FaultInjector& injector, std::uint64_t fp) {
  res->checker_violations.insert(res->checker_violations.end(),
                                 report.violations.begin(),
                                 report.violations.end());
  res->checker_warnings.insert(res->checker_warnings.end(),
                               report.warnings.begin(), report.warnings.end());
  res->events_checked += report.events_checked;
  res->faults_armed += injector.FaultsArmed();
  res->faults_applied += injector.FaultsApplied();
  res->kills_applied += injector.KillsApplied();
  res->fingerprint = fp;
  res->ok = res->failures.empty() && res->checker_violations.empty();
}

/// The point of the mux tier: stream count never touches the QP budget.
void CheckQpBudget(Simulation& sim, std::uint32_t width, TortureResult* res) {
  if (sim.device(0).QueuePairsCreated() != width ||
      sim.device(1).QueuePairsCreated() != width) {
    res->failures.push_back(
        "QP budget exceeded: created " +
        std::to_string(sim.device(0).QueuePairsCreated()) + "/" +
        std::to_string(sim.device(1).QueuePairsCreated()) +
        " queue pairs for a width-" + std::to_string(width) + " pool");
  }
}

// ---------------------------------------------------------------------------
// DrivePair: the single-connection driver (classic modes and kill legs).
// ---------------------------------------------------------------------------

/// What a kill leg adds to the pair drive: recovery's kill and resume, and
/// where the leg's fingerprints go.
struct KillLeg {
  const char* label;               ///< "golden" | "killed"
  const simnet::FaultEvent* kill;  ///< appended to the plan (killed leg)
  std::uint64_t payload_fp = 0;     ///< FNV over the delivered bytes
  std::uint64_t connection_fp = 0;  ///< trace fingerprint of this leg
};

/// One client/server pair driven by the seeded posting interleave (the
/// stream_property_test pattern), then verified byte for byte and replayed
/// through the checker.  Classic modes run it once with `leg` null.  A kill
/// leg runs it with recovery armed, `leg->kill` appended to the fault plan,
/// and a resume hook after every step; its failures and checker findings are
/// prefixed with the leg's label so the twin report reads.
void DrivePair(const TortureConfig& cfg, const Shape& shape, KillLeg* leg,
               TortureResult* res) {
  const std::string prefix =
      leg == nullptr ? "" : std::string(leg->label) + ": ";
  auto fail = [&](const std::string& what) {
    res->failures.push_back(prefix + what);
  };
  const bool seqpacket = shape.seqpacket;

  Simulation sim(shape.profile, cfg.seed, /*carry_payload=*/true);
  auto [client, server] = sim.CreateConnectedPair(
      seqpacket ? SocketType::kSeqPacket : SocketType::kStream, shape.opts);
  client->EnableTracing(cfg.trace_capacity);
  server->EnableTracing(cfg.trace_capacity);
  // Sample every chunk: the stage-attribution conservation rule runs on
  // each classic mode (a no-op for SEQPACKET, which traces no chunks).
  // Kill legs run without spans.
  if (leg == nullptr) sim.EnableChunkSpans();

  // Destroyed before `sim` (reverse declaration order): no simulated time
  // advances after the injector dies, so its scheduled lambdas never run
  // dangling.
  simnet::FaultInjector injector(sim.fabric());
  injector.AttachControlTarget(0, &client->channel_internal());
  injector.AttachControlTarget(1, &server->channel_internal());
  simnet::FaultPlan plan = Plan(cfg, shape, cfg.total_bytes);
  if (leg != nullptr) {
    injector.AttachKillTarget(0, client);
    injector.AttachKillTarget(1, server);
    // The transient base plan is identical in both legs; the kill is
    // appended outside the plan RNG, so golden and killed runs share every
    // stall and jitter window byte-for-byte until the kill lands.
    if (leg->kill != nullptr) plan.events.push_back(*leg->kill);
  }
  if (!plan.events.empty()) injector.Arm(plan);

  Rng rng(WorkloadSeed(cfg.seed));
  const std::uint64_t total = cfg.total_bytes;
  const std::uint64_t max_message = std::min(cfg.max_message, total);

  std::vector<std::uint8_t> out(total);
  FillPattern(out.data(), out.size(), 0, cfg.seed);
  std::vector<std::uint8_t> in(total, 0);

  // Message sizes for SEQPACKET are fixed up front (message boundaries are
  // preserved, so the receive side must know how many messages to await).
  std::vector<std::uint64_t> sizes;
  if (seqpacket) {
    std::uint64_t planned = 0;
    while (planned < total) {
      std::uint64_t s = rng.NextInRange(1, max_message);
      if (s > total - planned) s = total - planned;
      sizes.push_back(s);
      planned += s;
    }
  }

  constexpr std::size_t kScratch = 6;
  std::vector<std::vector<std::uint8_t>> scratch(
      kScratch, std::vector<std::uint8_t>(max_message));
  std::vector<std::size_t> free_scratch;
  for (std::size_t i = 0; i < kScratch; ++i) free_scratch.push_back(i);

  struct Posted {
    std::size_t scratch_index;
    std::uint64_t len;
  };
  std::unordered_map<std::uint64_t, Posted> posted;

  std::uint64_t send_off = 0;
  std::size_t msgs_sent = 0;
  std::uint64_t recv_done = 0;
  std::size_t msgs_received = 0;
  std::uint64_t pending_posted = 0;
  std::size_t recvs_posted = 0;

  server->events().SetHandler([&](const Event& ev) {
    if (ev.type != EventType::kRecvComplete) return;
    auto it = posted.find(ev.id);
    if (it == posted.end()) {
      fail("completion for unknown receive id");
      return;
    }
    Posted rec = it->second;
    posted.erase(it);
    if (ev.bytes > rec.len || recv_done + ev.bytes > total) {
      fail("receive completion exceeds posted/total size");
      return;
    }
    std::memcpy(in.data() + recv_done, scratch[rec.scratch_index].data(),
                ev.bytes);
    recv_done += ev.bytes;
    ++msgs_received;
    pending_posted -= rec.len;
    free_scratch.push_back(rec.scratch_index);
  });

  std::uint64_t resumes = 0;
  auto maybe_resume = [&]() {
    if (leg == nullptr) return;
    if (!client->TransportDead() && !server->TransportDead()) return;
    // The kill flushes one side instantly; the peer's QPs die one ack
    // delay later.  Pump simulated time until both halves are down, then
    // reconnect and resume at the delivered frontier.
    std::uint64_t spins = 0;
    while (!(client->TransportDead() && server->TransportDead())) {
      sim.RunFor(Microseconds(100));
      if (++spins > 100000u) {
        fail("peer transport never observed the kill");
        return;
      }
    }
    Socket::ResumePair(*client, *server);
    ++resumes;
  };

  // Drive loop: interleave postings with short runs of simulated time so
  // the relative order of sends, receives, control traffic — and faults —
  // varies by seed.  A kill leg stops at its first failure (a failed
  // resume must not pump again, and the killed leg never drives after a
  // failed golden leg).
  try {
    std::uint64_t guard = 0;
    auto done = [&]() {
      return seqpacket ? msgs_received >= sizes.size() : recv_done >= total;
    };
    while (!done() && (leg == nullptr || res->failures.empty())) {
      if (++guard > 2000000u) {
        fail(Stuck(recv_done, total));
        break;
      }
      bool can_send =
          seqpacket ? msgs_sent < sizes.size() : send_off < total;
      bool can_recv =
          !free_scratch.empty() &&
          (seqpacket ? recvs_posted < sizes.size()
                     : recv_done + pending_posted < total);

      if (can_send && (rng.NextBool() || !can_recv)) {
        if (seqpacket) {
          client->Send(out.data() + send_off, sizes[msgs_sent]);
          send_off += sizes[msgs_sent];
          ++msgs_sent;
        } else {
          std::uint64_t s = rng.NextInRange(1, max_message);
          if (s > total - send_off) s = total - send_off;
          if (shape.sendv_arity != 0) {
            // Vectored posting: carve the message into `sendv_arity`
            // slices (zero-length middles are legal padding) — one
            // logical send, one completion, gathered by the HCA.
            Socket::IoSlice iov[verbs::kMaxSge];
            std::uint64_t off = send_off, left = s;
            std::uint32_t n = 0;
            for (std::uint32_t k = 0; k < shape.sendv_arity; ++k) {
              std::uint64_t take = (k + 1 == shape.sendv_arity)
                                       ? left
                                       : rng.NextInRange(0, left);
              iov[n++] = {out.data() + off, take};
              off += take;
              left -= take;
            }
            client->Sendv(iov, n);
          } else {
            client->Send(out.data() + send_off, s);
          }
          send_off += s;
        }
      } else if (can_recv) {
        std::size_t idx = free_scratch.back();
        free_scratch.pop_back();
        std::uint64_t r = max_message;
        bool waitall = false;
        if (!seqpacket) {
          std::uint64_t room = total - recv_done - pending_posted;
          r = rng.NextInRange(1, max_message);
          if (r > room) r = room;
          waitall = rng.NextBool(0.4);
        }
        std::uint64_t id = server->Recv(scratch[idx].data(), r,
                                        RecvFlags{.waitall = waitall});
        posted.emplace(id, Posted{idx, r});
        pending_posted += r;
        ++recvs_posted;
      }
      sim.RunFor(static_cast<SimDuration>(
          rng.NextInRange(0, static_cast<std::uint64_t>(Microseconds(30)))));
      // Occasional full drains let the receiver catch up and empty the
      // ring, so dynamic runs actually flip between indirect and direct
      // phases instead of degenerating to pure-indirect.
      if (!can_send && !can_recv) {
        sim.Run();
      } else if (rng.NextBool(0.08)) {
        sim.Run();
      }
      maybe_resume();
    }
    if (res->failures.empty()) {
      sim.Run();
      // A late kill can land after the last byte delivered; resume anyway
      // so quiescence below means "fully recovered", never "dead quiet".
      if (leg != nullptr) {
        maybe_resume();
        sim.Run();
      }
    }
  } catch (const InvariantViolation& violation) {
    // A runtime EXS_CHECK fired mid-run (expected under sabotage).  The
    // traces recorded up to this point still go through the checker.
    fail(std::string("runtime invariant violation: ") + violation.what());
  }

  if (res->failures.empty()) {
    if (recv_done != total) {
      fail("short delivery: " + std::to_string(recv_done) + "/" +
           std::to_string(total) + " bytes");
    } else if (std::size_t good =
                   VerifyPattern(in.data(), in.size(), 0, cfg.seed);
               good != in.size()) {
      fail("payload corrupt at stream offset " + std::to_string(good));
    }
    if (!client->Quiescent() || !server->Quiescent()) {
      fail("endpoints not quiescent after drain");
    }
    if (!seqpacket) {
      std::uint64_t tx_seq = client->stream_tx()->sequence();
      std::uint64_t rx_seq = server->stream_rx()->sequence();
      std::uint64_t rx_est = server->stream_rx()->sequence_estimate();
      if (tx_seq != total || rx_seq != total || rx_est != total) {
        fail("sequence disagreement: S_s=" + std::to_string(tx_seq) +
             " S_r=" + std::to_string(rx_seq) +
             " S'_r=" + std::to_string(rx_est) + " expected " +
             std::to_string(total));
      }
    }
    if (leg != nullptr && leg->kill != nullptr &&
        injector.KillsApplied() == 0) {
      fail("the fatal kill never took effect");
    }
  }

  // On a killed leg the checker is resume-aware: delivered-byte continuity
  // (gap-free and duplicate-free through the markers) still runs; only the
  // cross-log conservation rules are skipped.
  InvariantReport report = CheckConnection(*client, *server);
  if (sim.chunk_spans() != nullptr) {
    report.Merge(CheckSpanConservation(*sim.chunk_spans()));
  }
  const std::uint64_t fp = ConnectionFingerprint(*client, *server);
  if (leg != nullptr) {
    for (auto& v : report.violations) v = prefix + v;
    for (auto& w : report.warnings) w = prefix + w;
    res->resumes += resumes;
    // FNV-1a over the delivered byte stream — the fingerprint the
    // kill/resume equivalence claim is stated over.  Trace fingerprints
    // legitimately differ between the twin runs (the killed run carries
    // kill/resume markers and retransmission postings); the *payload*
    // must not.
    Fnv1a payload;
    payload.MixBytes(in.data(), in.size());
    leg->payload_fp = payload.value();
    leg->connection_fp = fp;
  }
  Finish(res, report, injector, fp);
}

TortureResult DriveOnePair(const TortureConfig& cfg, const Shape& shape) {
  TortureResult res;
  DrivePair(cfg, shape, nullptr, &res);
  return res;
}

/// Twin-run equivalence: the same seed drives an unkilled golden leg and a
/// killed/resumed leg; the run passes only if both legs individually pass
/// AND deliver the byte-identical stream.
TortureResult DriveKill(const TortureConfig& cfg, const Shape& shape) {
  TortureResult res;
  KillLeg golden{"golden", nullptr};
  KillLeg killed{"killed", &shape.kill};
  DrivePair(cfg, shape, &golden, &res);
  DrivePair(cfg, shape, &killed, &res);
  if (golden.payload_fp != killed.payload_fp) {
    std::ostringstream oss;
    oss << "delivered stream diverged across kill/resume: golden payload "
        << "fp 0x" << std::hex << golden.payload_fp << ", killed 0x"
        << killed.payload_fp;
    res.failures.push_back(oss.str());
  }
  // The replay/determinism fingerprint chains both legs' payloads and the
  // killed leg's trace fingerprint (which covers the kill/resume markers
  // and the retransmission schedule).
  Fnv1a fp;
  fp.Mix(golden.payload_fp);
  fp.Mix(killed.payload_fp);
  fp.Mix(killed.connection_fp);
  res.fingerprint = fp.value();
  res.ok = res.failures.empty() && res.checker_violations.empty();
  return res;
}

// ---------------------------------------------------------------------------
// DriveFanout: N streams under the seeded multi-stream interleave.
// ---------------------------------------------------------------------------

/// The seeded fan-out interleave: every step hands one unit of work (a
/// chunk, a call) to a random stream that still has some, then lets a
/// random slice of time pass — the cross-stream orderings are the point.
/// Once no stream has work left it drains.  Runs until `done()`; returns
/// false if that took more than 2M steps.
template <typename HasWork, typename Step, typename Done>
bool Interleave(Simulation& sim, std::uint64_t seed, std::size_t n,
                HasWork has_work, Step step, Done done) {
  Rng rng(WorkloadSeed(seed));
  for (std::uint64_t guard = 0; !done();) {
    if (++guard > 2000000u) return false;
    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < n; ++i) {
      if (has_work(i)) ready.push_back(i);
    }
    if (ready.empty()) {
      sim.Run();  // everything posted: drain to completion
      continue;
    }
    step(ready[static_cast<std::size_t>(rng.NextInRange(0, ready.size() - 1))],
         rng);
    sim.RunFor(static_cast<SimDuration>(
        rng.NextInRange(0, static_cast<std::uint64_t>(Microseconds(30)))));
    if (rng.NextBool(0.08)) sim.Run();
  }
  return true;
}

/// One fan-out stream's receive side: a WAITALL sink for its whole payload.
struct Sink {
  Socket* socket = nullptr;
  std::vector<std::uint8_t> data;
  std::uint64_t received = 0;
  bool eof = false;
};

/// "many" and "mux": N client streams, each sending one patterned payload
/// into a WAITALL sink under the seeded interleave, then checked per pair
/// with the fingerprint chaining every pair in acceptance/attach order.
/// The topologies differ:
///  - many: the clients connect through the server engine (acceptor +
///    shared buffer pool + SRQ slot pool + progress engine).  The clients
///    close, every sink must see EOF and every lease return to the pool,
///    and CheckPoolConservation replays all receiver traces against the
///    shared slab — the O(pool) memory claim, validated under a seeded
///    interleave.
///  - mux: the streams ride two MuxGroups whose slot pool is `width` queue
///    pairs per endpoint while control-delay faults hold slot 0 on each
///    side (one held slot stalls every stream pinned to it — exactly the
///    HoL coupling the tier must survive).  The streams drain without
///    closing, the QP budget must hold, and CheckMuxGroupPair replays the
///    mux conservation laws: group data accounting, per-stream sequence
///    continuity, and per-slot credit conservation at quiescence.
TortureResult DriveFanout(const TortureConfig& cfg, const Shape& shape) {
  TortureResult res;
  const bool many = cfg.mode == "many";
  const std::uint32_t streams = shape.streams;
  const std::uint64_t per_stream =
      std::max<std::uint64_t>(cfg.total_bytes / streams, 4096);
  const std::uint64_t max_message = std::min(cfg.max_message, per_stream);

  // Causal chunk tracing ("many"), sampling every chunk: the
  // stage-attribution conservation rule below replays it.  Declared before
  // the simulation so the sockets holding a pointer to it die first.
  spans::SpanCollector span_collector(cfg.seed, /*sample_period=*/1);
  Simulation sim(shape.profile, cfg.seed, /*carry_payload=*/true);
  // The topology lives after `sim` (its devices) and before the injector
  // (its hold targets are engine or slot channels).  Sockets outliving the
  // groups at sim teardown is safe: a MuxStream whose group died is inert.
  std::optional<engine::ProgressEngine> progress;
  std::optional<engine::Acceptor> acceptor;
  std::optional<MuxGroup> g0, g1;
  engine::AcceptorOptions aopts;
  if (many) {
    progress.emplace(sim.fabric().node(1).cpu(),
                     engine::ProgressEngineOptions{});
    // Slab sized for exactly `streams` leases; watermarks at 1.0 so the
    // torture run admits every planned stream (the hysteresis band is
    // exercised by the unit tests and the manystream bench).
    aopts.pool = {.pool_bytes = streams * cfg.buffer_bytes,
                  .lease_bytes = cfg.buffer_bytes,
                  .high_watermark = 1.0,
                  .low_watermark = 1.0};
    aopts.control_slots = streams * shape.opts.credits;
    acceptor.emplace(sim.device(1), *progress, aopts);
  } else {
    g0.emplace(sim.device(0), shape.mux);
    g1.emplace(sim.device(1), shape.mux);
    MuxGroup::Connect(*g0, *g1);
  }

  std::vector<Socket*> clients;
  std::vector<std::unique_ptr<Sink>> sinks;
  std::unordered_map<Socket*, Sink*> sink_by_socket;
  std::uint64_t received = 0;
  auto absorb = [&received](Sink& sink, const Event& ev) {
    if (ev.type == EventType::kRecvComplete) {
      sink.received += ev.bytes;
      received += ev.bytes;
    }
    if (ev.type == EventType::kPeerClosed) sink.eof = true;
  };
  auto open_sink = [&](Socket& s) -> Sink& {
    auto sink = std::make_unique<Sink>();
    sink->socket = &s;
    sink->data.resize(per_stream);
    s.EnableTracing(cfg.trace_capacity);
    if (many) s.EnableChunkSpans(&span_collector);
    s.Recv(sink->data.data(), per_stream, RecvFlags{.waitall = true});
    sinks.push_back(std::move(sink));
    return *sinks.back();
  };

  simnet::FaultInjector injector(sim.fabric());
  if (many) {
    acceptor->Listen(
        sim.connections(), 4000, shape.opts,
        [&](Socket& s, const Event& ev) {
          auto it = sink_by_socket.find(&s);
          if (it != sink_by_socket.end()) absorb(*it->second, ev);
        },
        [&](Socket& s) {
          Sink& sink = open_sink(s);
          // Control-delay faults hold one channel per node; aim them at
          // the first stream on each side.
          if (sinks.size() == 1) {
            injector.AttachControlTarget(1, &s.channel_internal());
          }
          sink_by_socket.emplace(&s, &sink);
        });
  } else {
    injector.AttachControlTarget(0, &g0->slot(0));
    injector.AttachControlTarget(1, &g1->slot(0));
  }
  injector.Arm(Plan(cfg, shape, per_stream * streams));

  if (many) {
    int rejected = 0;
    for (std::uint32_t i = 0; i < streams; ++i) {
      Socket* pending = sim.Connect(0, 4000, SocketType::kStream, shape.opts,
                                    [&](Socket* s) {
                                      if (s == nullptr) ++rejected;
                                    });
      pending->EnableTracing(cfg.trace_capacity);
      pending->EnableChunkSpans(&span_collector);
      clients.push_back(pending);
      if (i == 0) {
        injector.AttachControlTarget(0, &pending->channel_internal());
      }
    }
    sim.Run();
    if (rejected != 0) {
      res.failures.push_back("engine refused " + std::to_string(rejected) +
                             " of " + std::to_string(streams) +
                             " planned streams");
    }
    if (sinks.size() != streams) {
      res.failures.push_back("accepted " + std::to_string(sinks.size()) +
                             " streams, expected " + std::to_string(streams));
    }
  } else {
    for (std::uint32_t i = 0; i < streams; ++i) {
      auto [c, s] = sim.CreateMuxedPair(*g0, *g1, shape.opts);
      c->EnableTracing(cfg.trace_capacity);
      clients.push_back(c);
      Sink& sink = open_sink(*s);
      s->events().SetHandler(
          [&absorb, &sink](const Event& ev) { absorb(sink, ev); });
    }
  }

  std::vector<std::vector<std::uint8_t>> payloads(clients.size());
  std::vector<std::uint64_t> sent(clients.size(), 0);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    payloads[i].resize(per_stream);
    FillPattern(payloads[i].data(), per_stream, 0, cfg.seed * 131 + i);
  }

  const std::uint64_t total = per_stream * sinks.size();
  try {
    const bool progressed = Interleave(
        sim, cfg.seed, clients.size(),
        [&](std::size_t i) { return sent[i] < per_stream; },
        [&](std::size_t i, Rng& rng) {
          std::uint64_t s = rng.NextInRange(1, max_message);
          if (s > per_stream - sent[i]) s = per_stream - sent[i];
          clients[i]->Send(payloads[i].data() + sent[i], s);
          sent[i] += s;
        },
        [&] { return !res.failures.empty() || received >= total; });
    if (!progressed) res.failures.push_back(Stuck(received, total));
    if (res.failures.empty()) {
      sim.Run();
      if (many) {
        for (Socket* c : clients) c->Close();
        sim.Run();
      }
    }
  } catch (const InvariantViolation& violation) {
    res.failures.push_back(std::string("runtime invariant violation: ") +
                           violation.what());
  }

  if (res.failures.empty()) {
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      const Sink& sink = *sinks[i];
      const std::string stream = "stream " + std::to_string(i);
      if (sink.received != per_stream) {
        res.failures.push_back(stream + " short delivery: " +
                               std::to_string(sink.received) + "/" +
                               std::to_string(per_stream) + " bytes");
      } else if (std::size_t good = VerifyPattern(sink.data.data(), per_stream,
                                                  0, cfg.seed * 131 + i);
                 good != per_stream) {
        // Accepts complete in connect order over the in-order handshake
        // wire, and a group demuxes by stream id, so sink i must hold
        // client i's pattern; a mux chunk demuxed to the wrong stream
        // fires here.
        res.failures.push_back(stream + " payload corrupt at offset " +
                               std::to_string(good));
      }
      if (many && !sink.eof) {
        res.failures.push_back(stream + " never observed peer close");
      }
      if (!sink.socket->Quiescent() || !clients[i]->Quiescent()) {
        res.failures.push_back(stream +
                               " endpoints not quiescent after drain");
      }
    }
    if (many) {
      // Reclaim-on-idle: every lease must be back in the pool after EOF.
      if (acceptor->pool().LeasesActive() != 0) {
        res.failures.push_back(
            std::to_string(acceptor->pool().LeasesActive()) +
            " ring leases still held after every stream closed");
      }
    } else {
      CheckQpBudget(sim, shape.mux.width, &res);
    }
  }

  InvariantReport report;
  Fnv1a fp;
  std::vector<const TraceLog*> rx_logs;
  for (std::size_t i = 0; i < sinks.size() && i < clients.size(); ++i) {
    report.Merge(CheckConnection(*clients[i], *sinks[i]->socket));
    rx_logs.push_back(&sinks[i]->socket->rx_trace());
    fp.Mix(ConnectionFingerprint(*clients[i], *sinks[i]->socket));
  }
  if (many) {
    PoolCheckOptions pool_opts;
    pool_opts.pool_capacity_bytes = aopts.pool.pool_bytes;
    pool_opts.lease_bytes = aopts.pool.lease_bytes;
    pool_opts.allow_truncated = cfg.trace_capacity != 0;
    report.Merge(CheckPoolConservation(rx_logs, pool_opts));
    report.Merge(CheckSpanConservation(span_collector));
  } else {
    report.Merge(CheckMuxGroupPair(*g0, *g1));
  }
  Finish(&res, report, injector, fp.value());
  return res;
}

/// "rpc": the RPC/KV tier (src/exs/rpc) under transient faults.  N
/// RpcClients over a shared MuxGroup slot pool drive one sharded KV server
/// through seeded request trains (Zipf keys, GET/PUT/DEL mix, mixed value
/// sizes), issued by the fan-out interleave one call per step, while
/// control-delay faults hold slot 0 on each side.  A tight per-call
/// deadline, a small client pipeline bound, and a deliberately starved
/// value slab keep every terminal outcome live in one run — answered, timed
/// out, refused (remote slab/oversize refusals plus local sheds) — and the
/// run passes only if the RPC conservation law holds: every issued call
/// reaches exactly one outcome, stale post-timeout responses never
/// double-resolve, the server's counters agree with the union of the
/// client ledgers, and the mux conservation laws hold underneath.
TortureResult DriveRpc(const TortureConfig& cfg, const Shape& shape) {
  TortureResult res;
  const std::uint32_t clients = shape.streams;

  Simulation sim(shape.profile, cfg.seed, /*carry_payload=*/true);
  MuxGroup g0(sim.device(0), shape.mux);
  MuxGroup g1(sim.device(1), shape.mux);
  MuxGroup::Connect(g0, g1);

  simnet::FaultInjector injector(sim.fabric());
  injector.AttachControlTarget(0, &g0.slot(0));
  injector.AttachControlTarget(1, &g1.slot(0));
  injector.Arm(Plan(
      cfg, shape,
      static_cast<std::uint64_t>(clients) * shape.calls_per_client * 512));

  // Starved slab: a slice of PUTs is REFUSED slab-full, and the 480-byte
  // size class overflows the 256-byte slots (oversize refusals) — the
  // conservation law must hold straight through the overload regime.
  rpc::KvServerOptions kv_opts;
  kv_opts.slab_slots = 12;
  kv_opts.slot_bytes = 256;
  kv_opts.recv_chunk_bytes = 512;
  rpc::KvServer server(kv_opts);

  rpc::RpcClientOptions copts;
  copts.default_deadline = Microseconds(400);  // fault holds overrun this
  copts.max_outstanding = 4;                   // tight => local sheds
  copts.recv_chunk_bytes = 512;
  copts.deliver_values = false;

  loadgen::WorkloadOptions wl;
  wl.key_space = 64;  // small, so DELs and overwriting PUTs land on keys

  std::vector<std::unique_ptr<rpc::RpcClient>> rpcs;
  std::vector<loadgen::WorkloadGenerator> gens;
  rpcs.reserve(clients);
  gens.reserve(clients);
  for (std::uint32_t i = 0; i < clients; ++i) {
    auto [c, s] = sim.CreateMuxedPair(g0, g1, shape.opts);
    server.Attach(*s);
    rpcs.push_back(
        std::make_unique<rpc::RpcClient>(*c, sim.scheduler(), copts));
    gens.emplace_back(wl, SplitMix64(cfg.seed ^ (0x4b5ull + i)).Next());
  }

  std::vector<std::uint32_t> remaining(clients, shape.calls_per_client);
  try {
    // The call trains bound the steps, so the progress guard never fires.
    Interleave(
        sim, cfg.seed, remaining.size(),
        [&](std::size_t i) { return remaining[i] > 0; },
        [&](std::size_t i, Rng&) {
          --remaining[i];
          const loadgen::WorkloadGenerator::Request req = gens[i].Next();
          std::uint8_t value[512];
          if (req.op == rpc::Op::kPut) {
            loadgen::WorkloadGenerator::FillValue(req.key, value,
                                                  req.value_len);
          }
          rpcs[i]->Call(req.op, req.key,
                        req.op == rpc::Op::kPut ? value : nullptr,
                        req.value_len);
        },
        [&] { return std::ranges::count(remaining, 0u) == clients; });
    // Drain: every pending call resolves (response or deadline timer).
    sim.Run();
    for (auto& rpc : rpcs) rpc->CloseSend();
    sim.Run();
  } catch (const InvariantViolation& violation) {
    res.failures.push_back(std::string("runtime invariant violation: ") +
                           violation.what());
  }

  if (res.failures.empty()) {
    for (std::size_t i = 0; i < rpcs.size(); ++i) {
      if (rpcs[i]->pending_calls() != 0) {
        res.failures.push_back(
            "client " + std::to_string(i) + " still has " +
            std::to_string(rpcs[i]->pending_calls()) +
            " pending calls after drain");
      }
      if (rpcs[i]->framing_failed()) {
        res.failures.push_back("client " + std::to_string(i) +
                               " frame decoder failed");
      }
    }
    if (server.stats().framing_errors != 0) {
      res.failures.push_back(
          std::to_string(server.stats().framing_errors) +
          " server-side framing errors");
    }
    // Zombie slots exist only while a send pins them; at quiescence the
    // slab must hold exactly the live keys.
    if (server.slab().zombies() != 0) {
      res.failures.push_back(std::to_string(server.slab().zombies()) +
                             " zombie slab slots after drain");
    }
    CheckQpBudget(sim, shape.mux.width, &res);
  }

  // The fingerprint chains every outcome in issue order per client — a
  // replay resolving one call differently (answered vs timed out, say)
  // diverges here even though both runs pass the checker.
  Fnv1a fp;
  std::vector<const rpc::RpcLedger*> ledgers;
  for (const auto& rpc : rpcs) {
    const rpc::RpcLedger& ledger = rpc->ledger();
    ledgers.push_back(&ledger);
    for (std::uint8_t o : ledger.outcome) fp.Mix(o);
    fp.Mix(ledger.stale_responses);
    fp.Mix(ledger.shed_local);
  }
  fp.Mix(server.counters().requests_received);
  fp.Mix(server.counters().answered);
  fp.Mix(server.counters().refused);
  fp.Mix(server.stats().hits);
  fp.Mix(server.stats().misses);
  fp.Mix(server.stats().slab_full_refusals);
  fp.Mix(server.stats().oversize_refusals);

  InvariantReport report = CheckRpcConservation(ledgers, &server.counters());
  report.Merge(CheckMuxGroupPair(g0, g1));
  Finish(&res, report, injector, fp.value());
  return res;
}

// ---------------------------------------------------------------------------
// The mode table: one row per mode, in the order the CLI and docs list them.
// ---------------------------------------------------------------------------

struct Mode {
  const char* name;
  bool default_sweep;  ///< swept by a bare `exs_torture`
  Shape (*derive)(const TortureConfig&);
  TortureResult (*drive)(const TortureConfig&, const Shape&);
};

constexpr Mode kModes[] = {
    {"dynamic", true, Base, DriveOnePair},
    {"direct", true, Direct, DriveOnePair},
    {"indirect", true, Indirect, DriveOnePair},
    {"coalesce", true, Coalesce, DriveOnePair},
    {"stripe", true, Stripe, DriveOnePair},
    {"seqpacket", false, SeqPacket, DriveOnePair},
    {"many", false, Many, DriveFanout},
    {"kill", true, Kill, DriveKill},
    {"mux", true, Mux, DriveFanout},
    {"batch", true, Batch, DriveOnePair},
    {"rpc", true, Rpc, DriveRpc},
};

const Mode* FindMode(const std::string& name) {
  for (const Mode& m : kModes) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Replay corpus: one `key=value` line per failing configuration.
// ---------------------------------------------------------------------------

/// One corpus key: how EncodeCorpusEntry prints a field and how
/// DecodeCorpusEntry parses it back (`set` throws on a malformed value).
struct CorpusKey {
  const char* name;
  /// Mode-specific keys are written only when pinned (non-zero or
  /// non-empty), so older corpus files round-trip byte-identically.
  bool only_when_pinned;
  std::string (*get)(const TortureConfig&);
  void (*set)(TortureConfig*, const std::string&);
};

/// A key that prints one TortureConfig field as it streams (flags as 0/1)
/// and parses it back: any value but "0" sets a flag.
template <auto Field>
constexpr CorpusKey Key(const char* name, bool only_when_pinned = false) {
  using T = std::remove_cvref_t<decltype(TortureConfig{}.*Field)>;
  return {name, only_when_pinned,
          [](const TortureConfig& c) {
            std::ostringstream oss;
            oss << c.*Field;
            return oss.str();
          },
          [](TortureConfig* c, const std::string& v) {
            if constexpr (std::is_same_v<T, std::string>) {
              c->*Field = v;
            } else if constexpr (std::is_same_v<T, bool>) {
              c->*Field = v != "0";
            } else {
              c->*Field = static_cast<T>(std::stoull(v));
            }
          }};
}

constexpr bool kPinned = true;

constexpr CorpusKey kCorpusKeys[] = {
    Key<&TortureConfig::seed>("seed"),
    Key<&TortureConfig::profile>("profile"),
    Key<&TortureConfig::mode>("mode"),
    Key<&TortureConfig::total_bytes>("total"),
    Key<&TortureConfig::max_message>("maxmsg"),
    Key<&TortureConfig::buffer_bytes>("buffer"),
    Key<&TortureConfig::trace_capacity>("tracecap"),
    Key<&TortureConfig::enable_faults>("faults"),
    Key<&TortureConfig::sabotage_stale_adverts>("sab_stale"),
    Key<&TortureConfig::sabotage_advert_gate>("sab_gate"),
    Key<&TortureConfig::rails>("rails", kPinned),
    {"sched", kPinned, [](const TortureConfig& c) { return c.sched; },
     [](TortureConfig* c, const std::string& v) {
       if (v != "rr" && v != "adaptive") throw std::invalid_argument(v);
       c->sched = v;
     }},
    Key<&TortureConfig::streams>("streams", kPinned),
    Key<&TortureConfig::width>("width", kPinned),
    Key<&TortureConfig::kill_permille>("killpm", kPinned),
    Key<&TortureConfig::batch>("batch", kPinned),
    Key<&TortureConfig::arity>("arity", kPinned),
    {"fp", false,
     [](const TortureConfig& c) {
       std::ostringstream oss;
       oss << "0x" << std::hex << c.expect_fingerprint;
       return oss.str();
     },
     [](TortureConfig* c, const std::string& v) {
       c->expect_fingerprint = std::stoull(v, nullptr, 0);
     }},
};

}  // namespace

std::vector<std::string> ModeNames(bool default_sweep_only) {
  std::vector<std::string> names;
  for (const Mode& m : kModes) {
    if (m.default_sweep || !default_sweep_only) names.push_back(m.name);
  }
  return names;
}

TortureResult RunTorture(const TortureConfig& cfg) {
  const Mode* mode = FindMode(cfg.mode);
  EXS_CHECK_MSG(mode != nullptr, "unknown mode '" << cfg.mode << "'");
  return mode->drive(cfg, mode->derive(cfg));
}

std::string EncodeCorpusEntry(const TortureConfig& cfg) {
  std::string line;
  for (const CorpusKey& key : kCorpusKeys) {
    const std::string value = key.get(cfg);
    if (key.only_when_pinned && (value.empty() || value == "0")) continue;
    if (!line.empty()) line += ' ';
    line += std::string(key.name) + "=" + value;
  }
  return line;
}

bool DecodeCorpusEntry(const std::string& line, TortureConfig* out) {
  TortureConfig cfg;
  bool have_seed = false;
  std::istringstream iss(line);
  std::string token;
  while (iss >> token) {
    std::size_t eq = token.find('=');
    if (eq == std::string::npos) return false;
    const std::string name = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (value.empty()) return false;
    const CorpusKey* key = nullptr;
    for (const CorpusKey& k : kCorpusKeys) {
      if (name == k.name) key = &k;
    }
    if (key == nullptr) return false;  // unknown key: refuse, don't drift
    try {
      key->set(&cfg, value);
    } catch (const std::exception&) {
      return false;
    }
    have_seed = have_seed || name == "seed";
  }
  if (!have_seed || FindMode(cfg.mode) == nullptr) return false;
  *out = cfg;
  return true;
}

std::vector<TortureConfig> LoadCorpus(const std::string& path) {
  std::ifstream file(path);
  EXS_CHECK_MSG(file.good(), "cannot read corpus file " << path);
  std::vector<TortureConfig> entries;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(file, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    TortureConfig cfg;
    EXS_CHECK_MSG(DecodeCorpusEntry(line, &cfg),
                  "malformed corpus entry at " << path << ":" << lineno);
    entries.push_back(cfg);
  }
  return entries;
}

void AppendCorpusEntry(const std::string& path, const TortureConfig& cfg,
                       std::uint64_t fingerprint) {
  std::ofstream file(path, std::ios::app);
  EXS_CHECK_MSG(file.good(), "cannot append to corpus file " << path);
  TortureConfig stamped = cfg;
  stamped.expect_fingerprint = fingerprint;
  file << EncodeCorpusEntry(stamped) << "\n";
}

}  // namespace exs::torture
