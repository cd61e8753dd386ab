// Shared types of the repository benchmark: the host-time span recorder,
// the result of one workload repetition, and the sim-metric fingerprint.
//
// The benchmark drives the library from outside through its public API.
// Everything it measures on the host clock is timed here, around the calls
// it makes; everything on the simulated clock is read from the library's
// own counters after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace perfbench {

/// Metric name -> value.  std::map keeps output and fingerprints in a
/// stable order.
using Metrics = std::map<std::string, double>;

inline std::int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(HostNowNs() - start_ns) * 1e-9;
}

/// Host-time spans recorded in memory around the benchmark's calls into
/// each layer and written out when the run ends.  Spans nest through an
/// open-span stack (the benchmark is single-threaded and simulator
/// callbacks run inside Run()), so each span's parent is the span open
/// when it began.  Spans of one request carry the same `op` id.
class Tracer {
 public:
  struct Span {
    const char* layer = "";
    const char* name = "";
    std::uint32_t parent = 0;  ///< index + 1 of the parent, 0 = root
    std::uint64_t op = 0;      ///< request id shared by one RPC's spans
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Opens a span; returns its id (index + 1).
  std::uint32_t Begin(const char* layer, const char* name,
                      std::uint64_t op = 0);
  void End(std::uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Host seconds per layer not covered by child spans.
  Metrics SelfSecondsByLayer() const;
  /// Summed duration of the root spans (s): all the host time traced.
  double RootSeconds() const;
  /// Summed duration (s) and count of spans with this name.
  double TotalSeconds(const char* name) const;
  std::uint64_t Count(const char* name) const;

  /// CSV: id,parent,op,layer,name,start_ns,end_ns (start relative to the
  /// first span).  Returns false when the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; a null tracer makes it a no-op, so untraced runs pay one
/// branch per call site.
class Scope {
 public:
  Scope(Tracer* tracer, const char* layer, const char* name,
        std::uint64_t op = 0)
      : tracer_(tracer), id_(tracer ? tracer->Begin(layer, name, op) : 0) {}
  ~Scope() {
    if (tracer_) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

/// One construction -> warm-up -> measured phase -> checks -> teardown
/// cycle of a workload.
struct Rep {
  // Host clock.
  double setup_s = 0.0;     ///< construction + warm-up Run()
  double measured_s = 0.0;  ///< the measured phase
  double teardown_s = 0.0;
  double heap_setup_kb = 0.0;  ///< heap in use after setup minus before

  // Operation accounting (completed ops drive host_ops_per_s).
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;

  /// Simulated per-operation latencies (ps), for pooled percentiles.
  std::vector<exs::SimDuration> latencies;
  /// Deterministic simulated-clock results: sums the end-to-end metrics
  /// derive from, and every per-layer count.  Fingerprinted.
  Metrics sim;
  /// Chunk-span stage percentiles (sim), taken only by the traced
  /// repetition.  Not fingerprinted.
  Metrics span_stages;
  /// Simulator events executed during setup and the measured phase.
  std::uint64_t setup_events = 0;
  std::uint64_t measured_events = 0;

  /// Output-correctness violations; any entry fails the run.
  std::vector<std::string> violations;
};

/// FNV-1a over every sim metric (name and bit pattern) and latency.
std::uint64_t Fingerprint(const Rep& rep);

double Median(std::vector<double> v);

/// Heap bytes this process has allocated and not freed, KiB.  Unlike the
/// resident set it drops when memory is freed, so every repetition of a
/// process sees the same growth over its setup.
double HeapInUseKb();
/// Peak resident set of this process, KiB.
double PeakRssKb();

}  // namespace perfbench
