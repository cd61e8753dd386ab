// Extension: shared-QP stream multiplexing (the MuxGroup tier).
//
// The classic library dedicates one RC queue pair — with its completion
// queues and pre-posted credit pool — to every connection, so verbs state
// grows linearly with stream count and a 64 Ki-stream server would need
// 64 Ki queue pairs.  The mux tier pins any number of streams to a fixed
// pool of slot queue pairs (stream ids ride the wire header, per-stream
// credit windows layer over the slot's §II-B credits, and a deficit-
// round-robin dispatch arbitrates parked streams).  This bench is the
// budget proof and its price tag:
//
//   * the dedicated arm sweeps 64 → 4096 streams and reports the queue
//     pairs the classic tier creates (== streams),
//   * the muxed arm sweeps 1024 → 65536 streams — the full 16-bit stream
//     id space at the top point — over a pool of eight slot queue pairs
//     per endpoint, and asserts the device-level QP count never exceeds
//     the pool width,
//   * fairness (slowest/median stream completion — the starvation
//     detector) stays tight under the DRR dispatch even when thousands of
//     streams contend for one slot's credit window, and
//   * the head-of-line price of sharing is quantified, not hidden: the
//     mux.hol_wait histograms of every stream merge into an aggregate
//     park-to-send p99.
//
// The mux conservation laws (CheckMuxGroupPair) run at every point; the
// per-pair trace checker runs at the counts where tracing is affordable.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "exs/mux.hpp"
#include "support.hpp"

namespace exs::bench {
namespace {

/// Slot queue pairs per MuxGroup in the muxed arm: the whole QP budget.
constexpr std::uint32_t kPoolWidth = 8;
/// Replaying every per-pair trace is O(events); affordable up to this
/// stream count, skipped (not failed) above it.
constexpr std::uint32_t kMaxTracedStreams = 64;
/// Muxed fairness gate: with uniform per-stream work the DRR dispatch
/// must keep the slowest stream within this factor of the median.
constexpr double kFairnessBound = 2.0;

constexpr std::uint32_t kDedicatedFull[] = {64, 1024, 4096};
constexpr std::uint32_t kDedicatedQuick[] = {64, 1024};
constexpr std::uint32_t kMuxedFull[] = {1024, 4096, 16384, 65536};
constexpr std::uint32_t kMuxedQuick[] = {1024, 4096};

struct Point {
  bool muxed = false;
  std::uint32_t streams = 0;
  std::uint32_t width = 0;  ///< QP budget (dedicated: == streams)
  std::uint64_t per_stream_bytes = 0;
  std::uint64_t qps_created = 0;  ///< device 1 (the endpoints are symmetric)
  double goodput_mbps = 0.0;
  /// Slowest finish / median finish (>= 1): the starvation detector the
  /// fairness gate runs on.  A stream the DRR under-serves drags the
  /// slowest finish out and blows this up; it is deliberately insensitive
  /// to the handful of early streams that complete inside the pre-
  /// saturation startup window (see `spread`).
  double fairness = 0.0;
  /// Slowest finish / fastest finish (>= 1), informational: at thousands
  /// of streams per slot this measures that startup head, not the
  /// dispatch (p1..p100 of the finish distribution stays tight).
  double spread = 0.0;
  std::uint64_t parks = 0;
  double hol_p99_us = 0.0;
  double hol_p999_us = 0.0;
  bool checker_ran = false;
  std::uint64_t checker_violations = 0;
};

/// One deterministic run: N stream pairs (dedicated queue pairs or muxed
/// over a kPoolWidth slot pool), every client pushes `per_stream` bytes in
/// round-robin slices so all streams stay backlogged, and the clock stops
/// at each stream's completion.  `failures` collects any correctness
/// problem (the bench exits nonzero if it is non-empty).
Point RunPoint(bool muxed, std::uint32_t streams,
               std::uint64_t aggregate_bytes,
               std::vector<std::string>* failures) {
  Point pt;
  pt.muxed = muxed;
  pt.streams = streams;
  pt.width = muxed ? kPoolWidth : streams;
  // Floor per-stream bytes at several DRR laps' worth of chunks: a stream
  // whose whole payload fits its in-flight window completes on its first
  // credit grant, and fairness would then measure the oversubscription
  // ratio (first grantee vs last in the rotation), not the dispatch.
  pt.per_stream_bytes =
      std::max<std::uint64_t>(aggregate_bytes / streams, 16 * kKiB);
  const std::uint64_t per_stream = pt.per_stream_bytes;
  const bool trace = streams <= kMaxTracedStreams;
  auto fail = [&](const std::string& msg) {
    failures->push_back(std::string(muxed ? "muxed" : "dedicated") +
                        " streams=" + std::to_string(streams) + ": " + msg);
  };

  simnet::HardwareProfile profile = simnet::HardwareProfile::FdrInfiniBand();
  Simulation sim(profile, /*seed=*/1, /*carry_payload=*/false);

  // Token-sized receive rings: with the sink Recv posted before any Send,
  // bulk bytes ride ADVERT-gated direct WWIs and the ring only buffers
  // protocol edges — 8 MiB defaults would put ring memory, not verbs
  // state, on trial at 65536 streams.
  StreamOptions opts;
  opts.credits = 8;
  opts.intermediate_buffer_bytes = 2 * kKiB;
  // Several WWIs per stream so windows and quanta actually arbitrate.
  opts.max_wwi_chunk = 2 * kKiB;

  MuxOptions mopts;
  mopts.width = kPoolWidth;
  mopts.qp_credits = 256;
  mopts.per_stream_credits = 2;

  std::optional<MuxGroup> g0;
  std::optional<MuxGroup> g1;
  if (muxed) {
    g0.emplace(sim.device(0), mopts);
    g1.emplace(sim.device(1), mopts);
    MuxGroup::Connect(*g0, *g1);
  }

  struct Pair {
    Socket* client = nullptr;
    Socket* server = nullptr;
    std::uint64_t received = 0;
    SimTime finish = 0;
  };
  std::vector<Pair> pairs(streams);
  // Timing-only payloads (carry_payload = false): every stream sends from
  // and sinks into shared buffers, keeping host memory O(per-stream).
  std::vector<std::uint8_t> sink(per_stream);
  std::vector<std::uint8_t> payload(per_stream);

  for (std::uint32_t i = 0; i < streams; ++i) {
    Pair& pair = pairs[i];
    if (muxed) {
      auto [c, s] = sim.CreateMuxedPair(*g0, *g1, opts);
      pair.client = c;
      pair.server = s;
    } else {
      auto [c, s] = sim.CreateConnectedPair(SocketType::kStream, opts);
      pair.client = c;
      pair.server = s;
    }
    if (trace) {
      pair.client->EnableTracing(0);
      pair.server->EnableTracing(0);
    }
    Pair* raw = &pair;
    pair.server->events().SetHandler([raw, per_stream, &sim](const Event& ev) {
      if (ev.type != EventType::kRecvComplete) return;
      raw->received += ev.bytes;
      if (raw->received >= per_stream && raw->finish == 0) {
        raw->finish = sim.Now();
      }
    });
    pair.server->Recv(sink.data(), per_stream, RecvFlags{.waitall = true});
  }

  pt.qps_created = sim.device(1).QueuePairsCreated();
  if (muxed && pt.qps_created != kPoolWidth) {
    fail("QP budget exceeded: " + std::to_string(pt.qps_created) +
         " queue pairs for a width-" + std::to_string(kPoolWidth) + " pool");
    return pt;
  }

  // Timed section: round-robin slices keep every stream backlogged across
  // the whole window — one Send per client would let the streams drain
  // sequentially in posting order and fairness would measure the posting
  // loop, not the dispatch.
  constexpr std::uint64_t kRounds = 8;
  const std::uint64_t slice = (per_stream + kRounds - 1) / kRounds;
  const SimTime start = sim.Now();
  for (std::uint64_t off = 0; off < per_stream; off += slice) {
    const std::uint64_t len = std::min(slice, per_stream - off);
    for (Pair& pair : pairs) pair.client->Send(payload.data() + off, len);
  }
  sim.Run();

  std::vector<SimTime> finishes;
  finishes.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const Pair& pair = pairs[i];
    if (pair.received != per_stream || pair.finish == 0) {
      fail("stream " + std::to_string(i) + " short delivery: " +
           std::to_string(pair.received) + "/" + std::to_string(per_stream));
      return pt;
    }
    finishes.push_back(pair.finish);
  }
  std::sort(finishes.begin(), finishes.end());
  const SimTime first = finishes.front();
  const SimTime median = finishes[finishes.size() / 2];
  const SimTime last = finishes.back();
  pt.goodput_mbps = ThroughputMbps(per_stream * streams, last - start);
  pt.fairness = median > start
                    ? static_cast<double>(last - start) /
                          static_cast<double>(median - start)
                    : 1.0;
  pt.spread = first > start
                  ? static_cast<double>(last - start) /
                        static_cast<double>(first - start)
                  : 1.0;
  if (muxed && streams > 1 && pt.fairness > kFairnessBound) {
    fail("DRR fairness " + FormatDouble(pt.fairness, 2) + "x exceeds the " +
         FormatDouble(kFairnessBound, 1) + "x bound");
  }

  if (muxed) {
    // Merge every client's park-to-send histogram bucket-wise (bucket
    // lower bounds re-land in their own bucket, so the merged percentile
    // is exact at bucket granularity).
    metrics::Histogram merged;
    for (const Pair& pair : pairs) {
      metrics::Histogram& h =
          pair.client->metrics_registry().GetHistogram("mux.hol_wait", "ps");
      const auto& buckets = h.buckets();
      for (std::size_t b = 0; b < metrics::Histogram::kBuckets; ++b) {
        for (std::uint64_t n = 0; n < buckets[b]; ++n) {
          merged.Record(metrics::Histogram::BucketLowerBound(b));
        }
      }
      pt.parks += static_cast<std::uint64_t>(
          pair.client->metrics_registry().GetCounter("mux.parks", "events")
              .value());
    }
    pt.hol_p99_us = merged.Percentile(99.0) / 1e6;  // ps -> us
    pt.hol_p999_us = merged.Percentile(99.9) / 1e6;
  }

  InvariantReport report;
  if (trace) {
    for (const Pair& pair : pairs) {
      report.Merge(CheckConnection(*pair.client, *pair.server));
    }
  }
  if (muxed) report.Merge(CheckMuxGroupPair(*g0, *g1));
  pt.checker_ran = trace || muxed;
  pt.checker_violations = report.violations.size();
  for (const std::string& v : report.violations) fail("checker: " + v);
  return pt;
}

}  // namespace
}  // namespace exs::bench

int main(int argc, char** argv) {
  using namespace exs::bench;
  Args args = Args::Parse(argc, argv);
  PrintBanner(std::cout, "Ext: shared-QP stream multiplexing (fdr)",
              "dedicated tier (one QP per stream) vs MuxGroup tier (64 Ki "
              "streams over eight slot QPs), with the DRR fairness and "
              "head-of-line price of sharing",
              args);
  std::cout << "(one deterministic run per point; --runs/--messages do not "
               "apply)\n\n";

  const std::uint64_t aggregate_bytes =
      args.quick ? 8 * exs::kMiB : 64 * exs::kMiB;
  std::vector<std::uint32_t> dedicated;
  std::vector<std::uint32_t> muxed;
  if (args.quick) {
    dedicated.assign(std::begin(kDedicatedQuick), std::end(kDedicatedQuick));
    muxed.assign(std::begin(kMuxedQuick), std::end(kMuxedQuick));
  } else {
    dedicated.assign(std::begin(kDedicatedFull), std::end(kDedicatedFull));
    muxed.assign(std::begin(kMuxedFull), std::end(kMuxedFull));
  }

  Report report("ext_mux", args, /*record_runs=*/false);
  report.Set("pool_width", kPoolWidth);
  report.Set("aggregate_bytes", aggregate_bytes);
  report.Set("fairness_bound", kFairnessBound);
  // The table shows the QP count before the per-stream bytes, the JSON
  // after them.
  report.Begin({{"tier", "tier"},
                {"streams", "streams"},
                {"", "width"},
                {"QPs", ""},
                {"per-stream", "per_stream_bytes"},
                {"", "qps_created"},
                {"goodput Mb/s", "goodput_mbps"},
                {"fairness", "fairness"},
                {"spread", "spread"},
                {"parks", "parks"},
                {"HoL p99 us", "hol_p99_us"},
                {"", "hol_p999_us"},
                {"", "checker_ran"},
                {"", "checker_violations"},
                {"checker", ""}});
  std::vector<std::string> failures;
  auto add = [&](bool is_muxed, std::uint32_t streams) {
    Point p = RunPoint(is_muxed, streams, aggregate_bytes, &failures);
    report.AddRow(
        {is_muxed ? "muxed" : "dedicated", p.streams, p.width, p.qps_created,
         Shown(std::to_string(p.per_stream_bytes / exs::kKiB) + " KiB",
               p.per_stream_bytes),
         p.qps_created, Fixed(p.goodput_mbps, 0), Fixed(p.fairness, 2, "x"),
         Fixed(p.spread, 2, "x"), p.parks,
         Shown(p.muxed ? FormatDouble(p.hol_p99_us, 1) : "-", p.hol_p99_us),
         p.hol_p999_us, p.checker_ran, p.checker_violations,
         CheckVerdict(p.checker_ran, p.checker_violations)});
  };
  for (std::uint32_t streams : dedicated) add(/*is_muxed=*/false, streams);
  for (std::uint32_t streams : muxed) add(/*is_muxed=*/true, streams);
  report.Print();
  std::cout << "\n";
  report.Write(args.results_json_path);

  for (const std::string& f : failures) std::cerr << "FAIL " << f << "\n";
  return failures.empty() ? 0 : 1;
}
