// The benchmark's workloads.  Each call runs one repetition: it builds the
// system, warms it up, runs the measured phase, checks the outputs and
// tears everything down, timing each phase on the host clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Open-loop KV traffic: `clients` muxed RpcClients on one width-8 shared
/// QP pool against one sharded KvServer, each issuing
/// `requests_per_client` requests from its own Poisson process.  The
/// aggregate offered rate is `rate_scale` times the base rate of one
/// request every 12 us.
struct KvSpec {
  std::uint32_t clients = 0;
  std::uint32_t requests_per_client = 0;
  double rate_scale = 1.0;
};

/// Aggregate base rate of KvSpec, requests per simulated second.
double KvBaseRate();

/// Closed-loop bursty stream: one dedicated-QP dynamic stream driven the
/// way blast drives it (8 outstanding sends, 8 posted receives,
/// exponential sizes with mean 256 KiB, bursts of 16 then 2 ms idle).
struct StreamSpec {
  std::uint64_t messages = 0;
};

/// Deliberate corruption of a result before the correctness gate, so the
/// benchmark's own tests can show the gate rejects it.
enum class Sabotage { kNone, kLoseOne };

struct RepOptions {
  /// Non-null makes this the traced repetition: host spans are recorded
  /// and chunk spans are enabled.  That may not change a simulated number.
  Tracer* tracer = nullptr;
  Sabotage sabotage = Sabotage::kNone;
  /// Stream: move real payload bytes and verify every delivered byte.
  /// (The KV workloads always carry payload: their frame decoders read
  /// it.)  The model guarantees this changes no simulated number either.
  bool verify_payload = false;
  /// Build, warm up and tear down only: an extra setup_s sample.
  bool setup_only = false;
};

Rep RunKv(const KvSpec& spec, std::uint64_t seed, const RepOptions& options);
Rep RunStream(const StreamSpec& spec, std::uint64_t seed,
              const RepOptions& options);

/// Runs the same stream through blast::RunBlast and reports where its
/// simulated results differ from `rep`'s (an empty result means agree).
std::vector<std::string> CrossCheckWithBlast(const StreamSpec& spec,
                                             std::uint64_t seed,
                                             const Rep& rep, Tracer* tracer);

}  // namespace perfbench
