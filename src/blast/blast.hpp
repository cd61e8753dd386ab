// The paper's measurement workload (§IV-B): a "blast" tool that sends
// messages as fast as possible from client to server — a model of a large
// file transfer — and reports throughput (Eq. 1), time per message, CPU
// usage on each side, and the library's direct/indirect transfer counters.
//
// The client keeps `outstanding_sends` requests in flight, reposting as
// completions arrive; the server keeps `outstanding_recvs` receives posted.
// Message sizes are either fixed or drawn from a truncated exponential
// distribution, exactly the two shapes the evaluation sweeps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "exs/exs.hpp"

namespace exs::blast {

struct BlastConfig {
  simnet::HardwareProfile profile = simnet::HardwareProfile::FdrInfiniBand();
  SocketType socket_type = SocketType::kStream;
  StreamOptions stream;

  std::uint32_t outstanding_sends = 1;
  std::uint32_t outstanding_recvs = 1;
  std::uint64_t message_count = 1000;

  /// Fixed message size; 0 selects the exponential distribution below.
  std::uint64_t fixed_message_bytes = 0;
  double exponential_mean_bytes = 256.0 * static_cast<double>(kKiB);
  std::uint64_t max_message_bytes = 4 * kMiB;

  /// Bursty traffic (paper §VI: "burstiness during a connection"): send
  /// `burst_messages` back to back, then idle for `burst_idle` before the
  /// next burst.  0 disables bursting (continuous blast).
  std::uint64_t burst_messages = 0;
  SimDuration burst_idle = 0;

  /// Mid-run workload shift (paper §VI: "dynamically changing send and
  /// receive message sizes"): from message index `shift_at_message`
  /// onwards, draw sizes from an exponential with this mean instead.
  /// 0 disables the shift.
  double shifted_mean_bytes = 0.0;
  std::uint64_t shift_at_message = 0;

  /// Size of each receive buffer the server posts.  The paper's tool posts
  /// buffers big enough for the largest message.
  std::uint64_t recv_buffer_bytes = 4 * kMiB;

  std::uint64_t seed = 1;

  /// Move and verify real payload bytes (slower; tests use it).
  bool carry_payload = false;
  bool verify_data = false;

  /// Delay before the client's first send.  The server posts its receives
  /// at time zero, so any positive head start lets the initial ADVERTs
  /// reach the client first — the connection then genuinely starts in a
  /// direct phase, as the paper observes.
  SimDuration client_start_delay = Microseconds(50);

  // Observability capture (see docs/OBSERVABILITY.md).  The JSON snapshots
  // land in BlastResult::metrics_json / timeline_json; the paths below
  // additionally write them to disk ("-" writes to stdout; a path that
  // cannot be written exits the process with status 2).  Setting a path
  // implies the corresponding capture flag.
  bool capture_metrics = false;
  bool capture_timeline = false;
  std::string metrics_json_path;
  std::string timeline_json_path;
  /// Per-log trace-event cap while capturing a timeline (0 = unbounded).
  std::uint64_t trace_event_capacity = 1'000'000;
};

struct BlastResult {
  double throughput_mbps = 0.0;       ///< Eq. 1, user bytes over elapsed
  double elapsed_seconds = 0.0;
  double time_per_message_us = 0.0;
  double receiver_cpu_percent = 0.0;
  double sender_cpu_percent = 0.0;
  std::uint64_t bytes_transferred = 0;
  std::uint64_t messages_sent = 0;

  // Client-side (sender) protocol counters.
  std::uint64_t direct_transfers = 0;
  std::uint64_t indirect_transfers = 0;
  std::uint64_t mode_switches = 0;
  double direct_ratio = 0.0;
  std::uint64_t adverts_discarded = 0;

  // Full per-socket statistics for deeper inspection.
  StreamStats client_stats;
  StreamStats server_stats;

  bool data_verified = false;  ///< true when verify_data ran and passed

  /// Captured exporter output (empty unless the config asked for it).
  std::string metrics_json;
  std::string timeline_json;
};

/// Run one blast with the given configuration.
BlastResult RunBlast(const BlastConfig& config);

/// Mean and 95% confidence half-width over repeated runs with different
/// seeds (the paper averages 10 runs per point).
struct Metric {
  double mean = 0.0;
  double ci95 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct BlastSummary {
  Metric throughput_mbps;
  Metric time_per_message_us;
  Metric receiver_cpu_percent;
  Metric sender_cpu_percent;
  Metric direct_ratio;
  Metric mode_switches;
  std::vector<BlastResult> runs;
};

BlastSummary RunRepeated(const BlastConfig& config, int runs);

}  // namespace exs::blast
