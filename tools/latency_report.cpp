// latency_report — end-to-end latency provenance for one simulated run.
//
// Drives a deterministic stream workload with causal chunk tracing
// enabled (common/spans.hpp), then prints the per-stage latency
// attribution table: p50/p99/p999/max per stage, end-to-end, and the
// per-rail head-of-line-blocking view.  Every number is an exact
// nearest-rank percentile over integer picoseconds, so the same flags
// always render the same bytes — the output is a determinism witness as
// much as a report.
//
//   ./latency_report                          # default: 200 mixed sends, FDR
//   ./latency_report --mode indirect --size 2K
//   ./latency_report --rails 4 --messages 500 --json report.json
//   ./latency_report --timeline-json flow.json   # Perfetto, with flow arrows
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/output.hpp"
#include "exs/invariant_checker.hpp"
#include "exs/simulation.hpp"

namespace {

using namespace exs;  // NOLINT

[[noreturn]] void Usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --profile fdr|iwarp|wan   fabric profile (fdr)\n"
      "  --mode dynamic|direct|indirect   transfer policy (dynamic)\n"
      "  --rails N        stripe across N queue pairs (1)\n"
      "  --messages N     messages to send (200)\n"
      "  --size BYTES     fixed message size (0 = seed-derived mix)\n"
      "  --max BYTES      cap for the seed-derived mix (32K)\n"
      "  --buffer BYTES   intermediate buffer capacity (64K)\n"
      "  --coalesce       enable small-send coalescing\n"
      "  --seed N         simulation seed (1)\n"
      "  --sample N       keep ~1 in N chunks (1 = every chunk)\n"
      "  --json FILE      also write the report as JSON ('-' for stdout)\n"
      "  --timeline-json FILE  write a Chrome trace-event timeline with\n"
      "                        per-chunk flow events ('-' for stdout)\n",
      argv0);
  std::exit(2);
}

std::uint64_t ParseSize(const std::string& s) {
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str()) {
    std::fprintf(stderr, "bad size: %s\n", s.c_str());
    std::exit(2);
  }
  std::string suffix = end;
  if (suffix == "K" || suffix == "k") {
    return static_cast<std::uint64_t>(v * 1024);
  }
  if (suffix == "M" || suffix == "m") {
    return static_cast<std::uint64_t>(v * 1024 * 1024);
  }
  if (!suffix.empty()) {
    std::fprintf(stderr, "bad size suffix: %s\n", suffix.c_str());
    std::exit(2);
  }
  return static_cast<std::uint64_t>(v);
}

/// SplitMix64 finalizer — the message-size mix must be a pure function of
/// (seed, index) so reruns are bit-identical.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

int main(int argc, char** argv) {
  std::string profile_name = "fdr";
  std::string mode_name = "dynamic";
  std::uint32_t rails = 1;
  std::uint64_t messages = 200;
  std::uint64_t fixed_size = 0;
  std::uint64_t max_size = 32 * 1024;
  std::uint64_t buffer_bytes = 64 * 1024;
  bool coalesce = false;
  std::uint64_t seed = 1;
  std::uint64_t sample = 1;
  std::string json_path;
  std::string timeline_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--profile") {
      profile_name = next();
    } else if (arg == "--mode") {
      mode_name = next();
    } else if (arg == "--rails") {
      rails = static_cast<std::uint32_t>(std::strtoull(next().c_str(),
                                                       nullptr, 10));
    } else if (arg == "--messages") {
      messages = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--size") {
      fixed_size = ParseSize(next());
    } else if (arg == "--max") {
      max_size = ParseSize(next());
    } else if (arg == "--buffer") {
      buffer_bytes = ParseSize(next());
    } else if (arg == "--coalesce") {
      coalesce = true;
    } else if (arg == "--seed") {
      seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--sample") {
      sample = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--timeline-json") {
      timeline_path = next();
    } else {
      Usage(argv[0]);
    }
  }
  if (messages == 0 || sample == 0) Usage(argv[0]);

  simnet::HardwareProfile profile = simnet::HardwareProfile::FdrInfiniBand();
  if (profile_name == "iwarp") {
    profile = simnet::HardwareProfile::Iwarp10G();
  } else if (profile_name == "wan") {
    profile = simnet::HardwareProfile::RoCE10GWithDelay(Milliseconds(24));
  } else if (profile_name != "fdr") {
    Usage(argv[0]);
  }

  StreamOptions opts;
  if (mode_name == "direct") {
    opts.mode = ProtocolMode::kDirectOnly;
  } else if (mode_name == "indirect") {
    opts.mode = ProtocolMode::kIndirectOnly;
  } else if (mode_name != "dynamic") {
    Usage(argv[0]);
  }
  opts.rails = rails;
  opts.intermediate_buffer_bytes = buffer_bytes;
  opts.coalesce.enabled = coalesce;

  Simulation sim(profile, seed, /*carry_payload=*/false);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();
  spans::SpanCollector& spans = sim.EnableChunkSpans(sample);

  // Seed-derived message sizes; both sides derive the same sequence, so a
  // WAITALL receive pairs with each send exactly.
  std::vector<std::uint64_t> sizes(messages);
  for (std::uint64_t i = 0; i < messages; ++i) {
    sizes[i] = fixed_size != 0 ? fixed_size : 1 + Mix(seed ^ i) % max_size;
  }
  std::uint64_t total = 0;
  for (std::uint64_t s : sizes) total += s;

  std::vector<std::uint8_t> tx_buf(fixed_size != 0 ? fixed_size : max_size);
  std::vector<std::uint8_t> rx_buf(tx_buf.size());
  for (std::uint64_t i = 0; i < messages; ++i) {
    client->Send(tx_buf.data(), sizes[i]);
    server->Recv(rx_buf.data(), sizes[i], RecvFlags{.waitall = true});
  }
  client->Close();
  sim.Run();

  // The conservation rule is the report's warrant: refuse to print numbers
  // the checker cannot reconcile.
  InvariantReport check = CheckConnection(*client, *server);
  check.Merge(CheckSpanConservation(spans));
  if (!check.ok()) {
    std::fprintf(stderr, "%s\n", check.Summary().c_str());
    return 1;
  }
  for (const auto& w : check.warnings) {
    std::fprintf(stderr, "warning: %s\n", w.c_str());
  }

  spans::LatencyReport report = spans.BuildReport();
  std::printf("profile=%s mode=%s rails=%u messages=%llu bytes=%llu\n",
              profile_name.c_str(), mode_name.c_str(), rails,
              static_cast<unsigned long long>(messages),
              static_cast<unsigned long long>(total));
  std::fputs(report.ToText().c_str(), stdout);

  if (!json_path.empty()) WriteOutputOrExit(json_path, report.ToJson());
  if (!timeline_path.empty()) {
    WriteOutputOrExit(timeline_path, sim.TimelineJson());
  }
  return 0;
}
