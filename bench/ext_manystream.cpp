// Extension: many-stream server engine (acceptor + shared pool + engine).
//
// The classic socket allocates a private intermediate ring per incoming
// stream, so a server's receive memory grows O(streams).  The engine
// inverts that: one 2 MiB slab — the memory of just EIGHT classic
// 256 KiB single-stream rings — is carved into per-stream ring leases,
// and every accepted connection draws its indirect ring and its SRQ
// control slots from the shared pools.  This bench is the scaling proof:
// it sweeps 1 → 4096 concurrent streams over that fixed slab (the lease
// shrinks as the stream count grows) and shows that
//
//   * aggregate goodput stays at the link's plateau — ADVERTs still let
//     bulk bytes bypass the (now tiny) leased rings entirely, so shared
//     buffering costs nothing on the data path,
//   * the deficit-round-robin engine keeps completion times tight across
//     streams (fairness = slowest/fastest stream time), and
//   * pool occupancy never exceeds the slab, which the trace-replay
//     conservation checker re-verifies event-by-event at the counts
//     where tracing is affordable.
//
// Unlike the figure benches this cannot ride on blast (which drives one
// connected pair); it stands up the real server path: listen, N timed
// handshakes through the acceptor's admission gate, engine-dispatched
// receive completions, close, lease reclaim.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/spans.hpp"
#include "exs/engine/acceptor.hpp"
#include "exs/engine/progress_engine.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "support.hpp"

namespace exs::bench {
namespace {

/// The fixed receiver budget: eight classic single-stream rings' worth.
constexpr std::uint64_t kSingleStreamRing = 256 * kKiB;
constexpr std::uint64_t kSlabBytes = 8 * kSingleStreamRing;  // 2 MiB
constexpr std::uint32_t kCredits = 8;
constexpr std::uint16_t kPort = 4000;
/// Replaying every trace through the conservation checker is O(events);
/// affordable up to this stream count, skipped (not failed) above it.
constexpr std::uint32_t kMaxTracedStreams = 64;

constexpr std::uint32_t kFullSweep[] = {1, 8, 64, 256, 1024, 4096};
constexpr std::uint32_t kQuickSweep[] = {1, 64, 1024};

struct Point {
  std::uint32_t streams = 0;
  std::uint64_t lease_bytes = 0;
  std::uint64_t per_stream_bytes = 0;
  double goodput_mbps = 0.0;
  double link_fraction = 0.0;
  double fairness = 0.0;  ///< slowest finish / fastest finish (>= 1)
  std::uint64_t pool_peak_bytes = 0;
  std::uint64_t admission_refusals = 0;
  bool checker_ran = false;
  std::uint64_t checker_violations = 0;
};

/// One deterministic run: N clients connect, each streams `per_stream`
/// bytes to an engine-driven sink, then closes.  `failures` collects any
/// correctness problem (the bench exits nonzero if it is non-empty).
/// `span_collector`, when non-null, attaches causal chunk tracing to every
/// client and accepted socket (--latency-json); the collector schedules no
/// events, so the measured numbers are unchanged.
Point RunPoint(std::uint32_t streams, std::uint64_t aggregate_bytes,
               std::vector<std::string>* failures,
               spans::SpanCollector* span_collector = nullptr) {
  Point pt;
  pt.streams = streams;
  pt.lease_bytes = kSlabBytes / streams;
  // Floor per-stream bytes so the posting slices stay comfortably above
  // the receiver's per-completion CPU cost (1.5 us per event at 47 Gb/s
  // ≈ 9 KiB of wire time) — below that the bench measures the event path,
  // not the shared-pool engine.
  pt.per_stream_bytes = std::max<std::uint64_t>(aggregate_bytes / streams,
                                                256 * kKiB);
  const std::uint64_t per_stream = pt.per_stream_bytes;
  const bool trace = streams <= kMaxTracedStreams;
  auto fail = [&](const std::string& msg) {
    failures->push_back("streams=" + std::to_string(streams) + ": " + msg);
  };

  simnet::HardwareProfile profile = simnet::HardwareProfile::FdrInfiniBand();
  const double link_mbps = profile.link_bandwidth.bytes_per_second * 8.0 / 1e6;
  Simulation sim(profile, /*seed=*/1, /*carry_payload=*/false);
  engine::ProgressEngine eng(sim.fabric().node(1).cpu(),
                             engine::ProgressEngineOptions{});
  engine::AcceptorOptions aopts;
  // Watermarks at 1.0: the slab holds exactly `streams` leases and the
  // sweep wants all of them admitted (the hysteresis band is covered by
  // the engine unit tests).
  aopts.pool = {.pool_bytes = kSlabBytes,
                .lease_bytes = pt.lease_bytes,
                .high_watermark = 1.0,
                .low_watermark = 1.0};
  aopts.control_slots = streams * kCredits;
  engine::Acceptor acceptor(sim.device(1), eng, aopts);

  struct Rx {
    Socket* socket = nullptr;
    std::uint64_t received = 0;
    SimTime finish = 0;
    bool eof = false;
  };
  std::vector<std::unique_ptr<Rx>> rxs;
  std::unordered_map<Socket*, Rx*> rx_by_socket;
  // Payloads are timing-only (carry_payload = false), so every stream can
  // sink into ONE shared buffer — host memory stays O(per-stream), which
  // is what makes the 4096-stream point affordable to run.
  std::vector<std::uint8_t> sink(per_stream);

  StreamOptions sopts;
  sopts.credits = kCredits;
  sopts.intermediate_buffer_bytes = pt.lease_bytes;  // replaced by the lease
  StreamOptions copts;
  copts.credits = kCredits;
  // The clients' own (unused) receive rings: keep them token-sized so the
  // *server's* memory is what the sweep measures.
  copts.intermediate_buffer_bytes = 4 * kKiB;

  acceptor.Listen(
      sim.connections(), kPort, sopts,
      [&](Socket& s, const Event& ev) {
        auto it = rx_by_socket.find(&s);
        if (it == rx_by_socket.end()) return;
        Rx& rx = *it->second;
        if (ev.type == EventType::kRecvComplete) {
          rx.received += ev.bytes;
          if (rx.received >= per_stream && rx.finish == 0) {
            rx.finish = sim.Now();
          }
        }
        if (ev.type == EventType::kPeerClosed) rx.eof = true;
      },
      [&](Socket& s) {
        auto rx = std::make_unique<Rx>();
        rx->socket = &s;
        if (trace) s.EnableTracing(0);
        if (span_collector != nullptr) s.EnableChunkSpans(span_collector);
        s.Recv(sink.data(), per_stream, RecvFlags{.waitall = true});
        rx_by_socket.emplace(&s, rx.get());
        rxs.push_back(std::move(rx));
      });

  std::vector<Socket*> clients;
  int rejected = 0;
  for (std::uint32_t i = 0; i < streams; ++i) {
    clients.push_back(sim.Connect(0, kPort, SocketType::kStream, copts,
                                  [&](Socket* s) {
                                    if (s == nullptr) ++rejected;
                                  }));
    if (span_collector != nullptr) {
      clients.back()->EnableChunkSpans(span_collector);
    }
  }
  sim.Run();  // all handshakes settle
  if (rejected != 0) {
    fail("acceptor refused " + std::to_string(rejected) +
         " planned connections");
    return pt;
  }
  if (rxs.size() != streams) {
    fail("accepted " + std::to_string(rxs.size()) + " streams, expected " +
         std::to_string(streams));
    return pt;
  }

  // Timed section: every client pushes its whole stream, the engine
  // drains the receiver, and the clock stops at each stream's completion.
  // Posting is round-robin in kRounds slices so every stream stays
  // backlogged across the whole window — one Send per client would let
  // the HCA drain the streams sequentially in posting order, and the
  // fairness column would measure the posting loop, not the engine.
  std::vector<std::uint8_t> payload(per_stream);  // timing-only, shared
  constexpr std::uint64_t kRounds = 8;
  const std::uint64_t slice = (per_stream + kRounds - 1) / kRounds;
  const SimTime start = sim.Now();
  for (std::uint64_t off = 0; off < per_stream; off += slice) {
    const std::uint64_t len = std::min(slice, per_stream - off);
    for (Socket* c : clients) c->Send(payload.data() + off, len);
  }
  sim.Run();

  SimTime first = 0, last = 0;
  for (std::size_t i = 0; i < rxs.size(); ++i) {
    const Rx& rx = *rxs[i];
    if (rx.received != per_stream || rx.finish == 0) {
      fail("stream " + std::to_string(i) + " short delivery: " +
           std::to_string(rx.received) + "/" + std::to_string(per_stream));
      return pt;
    }
    if (first == 0 || rx.finish < first) first = rx.finish;
    if (rx.finish > last) last = rx.finish;
  }
  pt.goodput_mbps = ThroughputMbps(per_stream * streams, last - start);
  pt.link_fraction = link_mbps > 0.0 ? pt.goodput_mbps / link_mbps : 0.0;
  pt.fairness = first > start
                    ? static_cast<double>(last - start) /
                          static_cast<double>(first - start)
                    : 1.0;
  pt.pool_peak_bytes = acceptor.pool().PeakBytesLeased();
  pt.admission_refusals = acceptor.AdmissionRefusals();
  if (pt.pool_peak_bytes > kSlabBytes) {
    fail("pool peak " + std::to_string(pt.pool_peak_bytes) +
         " exceeds the slab");
  }

  if (trace) {
    std::vector<const TraceLog*> rx_logs;
    for (const auto& rx : rxs) rx_logs.push_back(&rx->socket->rx_trace());
    PoolCheckOptions popts;
    popts.pool_capacity_bytes = kSlabBytes;
    popts.lease_bytes = pt.lease_bytes;
    InvariantReport report = CheckPoolConservation(rx_logs, popts);
    pt.checker_ran = true;
    pt.checker_violations = report.violations.size();
    for (const std::string& v : report.violations) {
      fail("pool conservation: " + v);
    }
  }

  for (Socket* c : clients) c->Close();
  sim.Run();
  for (std::size_t i = 0; i < rxs.size(); ++i) {
    if (!rxs[i]->eof) {
      fail("stream " + std::to_string(i) + " never observed peer close");
    }
  }
  if (acceptor.pool().LeasesActive() != 0) {
    fail(std::to_string(acceptor.pool().LeasesActive()) +
         " ring leases still held after every stream closed");
  }
  return pt;
}

}  // namespace
}  // namespace exs::bench

int main(int argc, char** argv) {
  using namespace exs::bench;
  Args args = Args::Parse(argc, argv);
  PrintBanner(std::cout, "Ext: many-stream server engine (fdr)",
              "1..4096 streams through listen/accept into one fixed 2 MiB "
              "slab (= 8 classic 256 KiB rings), engine-dispatched sinks",
              args);
  std::cout << "(one deterministic run per point; --runs/--messages do not "
               "apply)\n\n";

  const std::uint64_t aggregate_bytes =
      args.quick ? 16 * exs::kMiB : 64 * exs::kMiB;
  std::vector<std::uint32_t> sweep;
  if (args.quick) {
    sweep.assign(std::begin(kQuickSweep), std::end(kQuickSweep));
  } else {
    sweep.assign(std::begin(kFullSweep), std::end(kFullSweep));
  }

  Report report("ext_manystream", args, /*record_runs=*/false);
  report.Set("slab_bytes", kSlabBytes);
  report.Set("single_stream_ring_bytes", kSingleStreamRing);
  report.Set("aggregate_bytes", aggregate_bytes);
  report.Set("credits", kCredits);
  report.Begin({{"streams", "streams"},
                {"lease", "lease_bytes"},
                {"per-stream", "per_stream_bytes"},
                {"goodput Mb/s", "goodput_mbps"},
                {"% link", "link_fraction"},
                {"fairness", "fairness"},
                {"pool peak KiB", "pool_peak_bytes"},
                {"refused", "admission_refusals"},
                {"", "checker_ran"},
                {"", "checker_violations"},
                {"pool check", ""}},
               "profile", "fdr");
  std::vector<std::string> failures;
  for (std::uint32_t streams : sweep) {
    Point p = RunPoint(streams, aggregate_bytes, &failures);
    std::string lease = p.lease_bytes >= exs::kKiB
                            ? std::to_string(p.lease_bytes / exs::kKiB) + " KiB"
                            : std::to_string(p.lease_bytes) + " B";
    report.AddRow(
        {p.streams, Shown(lease, p.lease_bytes),
         Shown(std::to_string(p.per_stream_bytes / exs::kKiB) + " KiB",
               p.per_stream_bytes),
         Fixed(p.goodput_mbps, 0),
         Shown(FormatDouble(p.link_fraction * 100.0, 1), p.link_fraction),
         Fixed(p.fairness, 2, "x"),
         Shown(std::to_string(p.pool_peak_bytes / exs::kKiB),
               p.pool_peak_bytes),
         p.admission_refusals, p.checker_ran, p.checker_violations,
         CheckVerdict(p.checker_ran, p.checker_violations)});
  }
  report.Print();
  std::cout << "\n";
  report.Write(args.results_json_path);

  if (!args.latency_json_path.empty()) {
    // A dedicated span-instrumented run at the largest traced point.  The
    // collector must be declared before the point's Simulation (sockets
    // hold a raw pointer into it), which RunPoint's inner scope satisfies.
    constexpr std::uint32_t kLatencyStreams = kMaxTracedStreams;
    exs::spans::SpanCollector collector(/*seed=*/1, /*sample_period=*/1);
    Point p = RunPoint(kLatencyStreams, aggregate_bytes, &failures, &collector);
    Report latency("ext_manystream", args, /*record_runs=*/false);
    latency.Set("streams", kLatencyStreams);
    latency.Set("per_stream_bytes", p.per_stream_bytes);
    latency.Set("sample_period", collector.sample_period());
    latency.Set("latency", RawJson(collector.BuildReport().ToJson()));
    latency.Write(args.latency_json_path);
  }

  for (const std::string& f : failures) std::cerr << "FAIL " << f << "\n";
  return failures.empty() ? 0 : 1;
}
