// The repository benchmark.  One process, one thread, one named workload:
//
//   perfbench --workload kv_hot --seed 1 --seconds 10 --trace 0
//
// It repeats the workload until --seconds have passed, gates every
// repetition on output correctness and on producing the same simulated
// results as the first, and prints the metrics as the last line of
// standard output:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes the first
// repetition the traced one and prints the per-layer metrics instead.
// README.md beside this file defines every metric.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/spans.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  Sabotage sabotage = Sabotage::kNone;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload stream_bursty|kv_fanout|kv_hot"
               " --seed N --seconds S --trace 0|1 [--size full|tiny]"
               " [--sabotage none|lose-one] [--trace-out PATH]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') Usage("bad seed " + v);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || a.seconds <= 0) Usage("bad seconds " + v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--size") {
      if (v != "full" && v != "tiny") Usage("--size takes full or tiny");
      a.tiny = v == "tiny";
    } else if (flag == "--sabotage") {
      if (v != "none" && v != "lose-one") Usage("bad --sabotage " + v);
      a.sabotage = v == "lose-one" ? Sabotage::kLoseOne : Sabotage::kNone;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload prints every metric of its mode.  Counts and shares of a
// layer a workload never touches read 0 (see NotApplicable); no time
// metric does, so each one varies with the seed or the host.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_ops_per_s", "ops/s"},
    {"peak_rss_mb", "MB"},
    {"p50_us", "us"},
    {"p99_us", "us"},
    {"p999_us", "us"},
    {"server_cpu_us_per_op", "us"},
    {"max_rate_ops_per_s", "ops/s"},
    {"goodput_mbps", "Mb/s"},
    {"rx_cpu_pct", "%"},
};

constexpr MetricDef kPerLayer[] = {
    {"simnet.events", "count"},
    {"simnet.events_per_op", "count"},
    {"simnet.host_ns_per_event", "ns"},
    {"simnet.setup_events", "count"},
    {"simnet.server_cpu_busy_frac", "ratio"},
    {"simnet.server_cpu_tasks_per_op", "count"},
    {"verbs.wrs_per_op", "count"},
    {"verbs.wire_bytes_per_op", "bytes"},
    {"verbs.doorbells", "count"},
    {"verbs.batched_wrs", "count"},
    {"verbs.rnr_errors", "count"},
    {"stream.direct_ratio", "ratio"},
    {"stream.mode_switches", "count"},
    {"stream.advert_waste", "ratio"},
    {"stream.rx_copy_busy_us", "us"},
    {"stream.ring_occupancy_mean", "bytes"},
    {"stream.advert_rtt_mean_us", "us"},
    {"channel.credit_messages_per_op", "count"},
    {"mux.dispatch_rounds", "count"},
    {"mux.dispatch_wakes", "count"},
    {"mux.parks", "count"},
    {"mux.parked_streams_mean", "count"},
    {"rpc.timed_out", "count"},
    {"rpc.refused", "count"},
    {"rpc.shed_local", "count"},
    {"rpc.stale", "count"},
    {"kv.requests_received", "count"},
    {"kv.refused", "count"},
    {"span.chunk_p99_us", "us"},
    {"span.wire_p50_us", "us"},
    {"span.wire_p99_us", "us"},
    {"span.tx_queue_pct", "%"},
    {"span.wire_pct", "%"},
    {"span.rx_ring_pct", "%"},
    {"span.rx_copy_pct", "%"},
    {"span.rx_deliver_pct", "%"},
    {"host.call_ns", "ns"},
    {"loadgen.next_pct", "%"},
    {"setup.loadgen_pct", "%"},
    {"setup.pair_host_us", "us"},
    {"setup.heap_per_client_kb", "KiB"},
    {"setup.warmup_host_s", "s"},
    {"teardown_s", "s"},
    {"self.simnet_pct", "%"},
    {"self.exs.socket_pct", "%"},
    {"self.exs.mux_pct", "%"},
    {"self.exs.rpc_pct", "%"},
    {"self.exs.loadgen_pct", "%"},
    {"self.exs.stream_pct", "%"},
    {"self.blast_pct", "%"},
    {"self.bench_pct", "%"},
    {"self.check_pct", "%"},
    {"self.teardown_pct", "%"},
    {"self.remainder_pct", "%"},
    {"trace.spanned_s", "s"},
    {"trace.traced_host_ops_per_s", "ops/s"},
    {"trace.untraced_host_ops_per_s", "ops/s"},
    {"trace.overhead_ratio", "ratio"},
    {"ops.attempted", "count"},
    {"ops.failed", "count"},
    {"ops.fail_rate", "ratio"},
};

/// p99 limit and rate grid of the max-rate search on the KV workloads.
constexpr double kSloP99Us = 1000.0;
constexpr int kRateGridPoints = 16;
constexpr double kRateGridStep = 0.025;  ///< of the base rate
/// Every run takes at least this many setup_s samples.
constexpr int kMinSetupSamples = 5;

struct Workload {
  const char* name;
  bool kv;
  KvSpec kv_spec;
  StreamSpec stream_spec;
  /// Per-layer metric prefixes of layers this workload never touches.
  std::vector<std::string> not_applicable;
};

Workload Lookup(const std::string& name, bool tiny) {
  if (name == "kv_fanout") {
    return {"kv_fanout", true, {tiny ? 256u : 8192u, 4}, {}, {}};
  }
  if (name == "kv_hot") {
    return {"kv_hot", true, {tiny ? 16u : 128u, tiny ? 64u : 256u}, {}, {}};
  }
  if (name == "stream_bursty") {
    return {"stream_bursty", false, {}, {tiny ? 2000u : 120000u},
            {"mux.dispatch", "rpc.", "kv."}};
  }
  Usage("unknown workload " + name);
}

Rep RunRep(const Workload& w, std::uint64_t seed, const RepOptions& o) {
  return w.kv ? RunKv(w.kv_spec, seed, o) : RunStream(w.stream_spec, seed, o);
}

double OpsPerSecond(const Rep& r) {
  return r.measured_s > 0 ? static_cast<double>(r.completed) / r.measured_s
                          : 0.0;
}

bool NotApplicable(const Workload& w, const std::string& metric) {
  return std::any_of(w.not_applicable.begin(), w.not_applicable.end(),
                     [&metric](const std::string& prefix) {
                       return metric.rfind(prefix, 0) == 0;
                     });
}

/// Highest grid rate (the base rate times 1 + k * step) whose run meets
/// the p99 limit with no failed RPC.  Binary search: pass/fail is taken
/// to be monotone in the offered rate.  Grid point 0 is the base run.
double MaxRate(const Workload& w, std::uint64_t seed, const Rep& base,
               std::vector<std::string>* violations) {
  auto passes = [&](const Rep& r) {
    std::vector<exs::SimDuration> lat = r.latencies;
    const exs::spans::StageStats st = exs::spans::Summarise(&lat);
    return r.failed == 0 && static_cast<double>(st.p99_ps) / 1e6 <= kSloP99Us;
  };
  if (!passes(base)) return 0.0;
  int lo = 0;
  int hi = kRateGridPoints - 1;
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    KvSpec spec = w.kv_spec;
    spec.rate_scale = 1.0 + kRateGridStep * mid;
    const Rep r = RunKv(spec, seed, {});
    for (const std::string& v : r.violations) {
      violations->push_back("rate x" + std::to_string(spec.rate_scale) +
                            ": " + v);
    }
    if (passes(r)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return KvBaseRate() * (1.0 + kRateGridStep * lo);
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Metrics& values, const MetricDef* defs,
                 std::size_t n) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  const char* sep = "";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    if (it == values.end()) continue;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", it->second);
    out += sep;
    sep = ", ";
    out += std::string("\"") + defs[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload w = Lookup(args.workload, args.tiny);
  const std::int64_t run_start = HostNowNs();

  std::vector<std::string> violations;
  auto gate = [&violations](const Rep& r, const char* which) {
    for (const std::string& v : r.violations) {
      violations.push_back(std::string(which) + ": " + v);
    }
  };

  // Repetitions: in trace mode the traced one first, then (stream) one
  // that carries and verifies payload; then untraced ones until the time
  // is up.  Every repetition replays the same seed, so each must
  // reproduce the first one's simulated results exactly.
  Tracer tracer;
  std::vector<Rep> reps;  // untraced, full
  Rep traced;
  std::uint64_t fingerprint = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto check_fingerprint = [&](const Rep& r, const char* which) {
    const std::uint64_t fp = Fingerprint(r);
    if (fingerprint == 0) fingerprint = fp;
    if (fp != fingerprint) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "%s: sim fingerprint %016" PRIx64 " != %016" PRIx64,
                    which, fp, fingerprint);
      violations.push_back(buf);
    }
  };
  auto run_checked = [&](const RepOptions& o, const char* which) {
    Rep r = RunRep(w, args.seed, o);
    gate(r, which);
    check_fingerprint(r, which);
    attempted += r.attempted;
    failed += r.failed;
    // Only the first untraced repetition's latencies are reported; holding
    // every repetition's would grow peak_rss_mb with the run length.
    if (!reps.empty() || o.tracer != nullptr || o.verify_payload) {
      std::vector<exs::SimDuration>().swap(r.latencies);
    }
    return r;
  };
  if (args.trace) {
    traced = run_checked({.tracer = &tracer, .sabotage = args.sabotage},
                         "traced repetition");
    if (!w.kv) {
      run_checked({.sabotage = args.sabotage, .verify_payload = true},
                  "payload-verifying repetition");
    }
  }
  while (violations.empty() &&
         (reps.size() < 2 || SecondsSince(run_start) < args.seconds)) {
    reps.push_back(run_checked({.sabotage = args.sabotage}, "repetition"));
  }
  const double peak_rss_mb = PeakRssKb() / 1024.0;
  std::vector<double> setup, ops_per_s, ns_per_event, heap_kb, teardown;
  for (const Rep& r : reps) {
    setup.push_back(r.setup_s);
    ops_per_s.push_back(OpsPerSecond(r));
    ns_per_event.push_back(r.measured_s * 1e9 /
                           static_cast<double>(r.measured_events));
    heap_kb.push_back(r.heap_setup_kb);
    teardown.push_back(r.teardown_s);
  }
  while (violations.empty() && !args.trace &&
         static_cast<int>(setup.size()) < kMinSetupSamples) {
    setup.push_back(
        RunRep(w, args.seed, {.setup_only = true}).setup_s);
  }

  Metrics out;
  if (violations.empty() && !args.trace) {
    const Rep& first = reps.front();
    std::vector<exs::SimDuration> lat = first.latencies;
    const exs::spans::StageStats st = exs::spans::Summarise(&lat);
    out["setup_s"] = Median(setup);
    out["host_ops_per_s"] = Median(ops_per_s);
    out["peak_rss_mb"] = peak_rss_mb;
    out["p50_us"] = static_cast<double>(st.p50_ps) / 1e6;
    out["p99_us"] = static_cast<double>(st.p99_ps) / 1e6;
    out["p999_us"] = static_cast<double>(st.p999_ps) / 1e6;
    for (const char* name : {"server_cpu_us_per_op", "goodput_mbps",
                             "rx_cpu_pct"}) {
      out[name] = first.sim.at(name);
    }
    if (w.kv) {
      out["max_rate_ops_per_s"] = MaxRate(w, args.seed, first, &violations);
    } else {
      // A closed loop's capacity is the message rate it delivered.
      out["max_rate_ops_per_s"] = static_cast<double>(first.completed) /
                                  first.sim.at("stream.elapsed_s");
    }
  }
  if (violations.empty() && !w.kv) {
    for (const std::string& d :
         CrossCheckWithBlast(w.stream_spec, args.seed, reps.front(),
                             args.trace ? &tracer : nullptr)) {
      violations.push_back("blast cross-check: " + d);
    }
  }
  if (violations.empty() && args.trace) {
    for (const MetricDef& d : kPerLayer) {
      const auto it = traced.sim.find(d.name);
      if (it != traced.sim.end()) out[d.name] = it->second;
    }
    for (const auto& [name, value] : traced.span_stages) out[name] = value;
    const auto per = [&tracer](const char* span, double scale) {
      const std::uint64_t n = tracer.Count(span);
      return n == 0 ? 0.0
                    : tracer.TotalSeconds(span) * scale /
                          static_cast<double>(n);
    };
    const auto pct = [](double part, double whole) {
      return whole > 0 ? 100.0 * part / whole : 0.0;
    };
    out["simnet.host_ns_per_event"] = Median(ns_per_event);
    // The request a workload submits: an RPC, or a stream message.
    out["host.call_ns"] = per(w.kv ? "rpc.call" : "stream.send", 1e9);
    out["loadgen.next_pct"] =
        pct(tracer.TotalSeconds("loadgen.next"), traced.measured_s);
    out["setup.loadgen_pct"] =
        pct(tracer.TotalSeconds("loadgen.construct"), traced.setup_s);
    out["setup.pair_host_us"] = per("socket.create_pair", 1e6);
    const double pairs = w.kv ? w.kv_spec.clients : 1.0;
    out["setup.heap_per_client_kb"] = Median(heap_kb) / pairs;
    out["setup.warmup_host_s"] = tracer.TotalSeconds("sim.run_warmup");
    out["teardown_s"] = Median(teardown);
    const double spanned = tracer.RootSeconds();
    out["trace.spanned_s"] = spanned;
    for (const char* layer :
         {"simnet", "exs.socket", "exs.mux", "exs.rpc", "exs.loadgen",
          "exs.stream", "blast", "bench", "check", "teardown", "remainder"}) {
      out[std::string("self.") + layer + "_pct"] = 0.0;
    }
    for (const auto& [layer, s] : tracer.SelfSecondsByLayer()) {
      out["self." + layer + "_pct"] = pct(s, spanned);
    }
    const double untraced = Median(ops_per_s);
    out["trace.traced_host_ops_per_s"] = OpsPerSecond(traced);
    out["trace.untraced_host_ops_per_s"] = untraced;
    out["trace.overhead_ratio"] = untraced / OpsPerSecond(traced);
    out["ops.attempted"] = static_cast<double>(traced.attempted);
    out["ops.failed"] = static_cast<double>(traced.failed);
    out["ops.fail_rate"] =
        static_cast<double>(traced.failed) /
        static_cast<double>(std::max<std::uint64_t>(traced.attempted, 1));
    for (const MetricDef& d : kPerLayer) {
      if (out.count(d.name) != 0) continue;
      if (!NotApplicable(w, d.name)) {
        violations.push_back(std::string("per-layer metric not measured: ") +
                             d.name);
      }
      out[d.name] = 0.0;
    }
    if (!args.trace_out.empty() && !tracer.WriteCsv(args.trace_out)) {
      violations.push_back("cannot write " + args.trace_out);
    }
  }

  std::printf("perfbench workload=%s seed=%" PRIu64
              " repetitions=%zu setup_samples=%zu wall_s=%.3f\n",
              w.name, args.seed, reps.size(), setup.size(),
              SecondsSince(run_start));
  std::printf("sim_fingerprint %016" PRIx64 "\n", fingerprint);
  std::printf("repetition host_ops_per_s:");
  for (double v : ops_per_s) std::printf(" %.0f", v);
  std::printf("\nsetup_s samples:");
  for (double v : setup) std::printf(" %.4f", v);
  std::printf("\n");
  std::fflush(stdout);
  for (const std::string& v : violations) {
    std::cerr << "perfbench: FAIL " << v << "\n";
  }
  const bool correct = violations.empty();
  if (args.trace) {
    PrintResult(correct, attempted, failed, out, kPerLayer,
                std::size(kPerLayer));
  } else {
    PrintResult(correct, attempted, failed, out, kEndToEnd,
                std::size(kEndToEnd));
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
