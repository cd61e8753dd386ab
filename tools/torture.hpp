// exs_torture — seeded fault-injection torture harness for the EXS stack.
//
// One torture run = one seed: the seed fixes the hardware schedule, the
// workload (message sizes, WAITALL mix, posting interleave) AND the fault
// plan (simnet/faults.hpp), so any failure reproduces byte-for-byte from
// its corpus line alone.  After the run the TraceLogs are replayed through
// the invariant checker (exs/invariant_checker.hpp) and the delivered
// bytes verified against the position-dependent pattern — a run passes
// only if the stream is intact AND every invariant of the safety theorem
// held throughout.
//
// Failing configurations encode to one `key=value` line (a replay-corpus
// entry, see docs/FAULTS.md); `exs_torture --replay corpus.txt` re-runs
// each entry twice and compares trace fingerprints to prove determinism.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exs/types.hpp"
#include "simnet/profile.hpp"

namespace exs::torture {

struct TortureConfig {
  std::uint64_t seed = 1;
  /// Hardware profile: "fdr", "iwarp", or "wan" (RoCE through 24 ms of
  /// emulated one-way delay, the paper's distance experiment).
  std::string profile = "fdr";
  /// Protocol mode: one row of the mode table in torture.cpp, which
  /// derives each mode's options and shape from the seed and names its
  /// driver.  ModeNames() lists the modes; docs/FAULTS.md describes them.
  std::string mode = "dynamic";
  // Mode-specific pins: 0 (or "") derives the axis from the seed.  Only
  // pinned values are written to a corpus entry, so older corpus files
  // round-trip byte-identically.
  /// "stripe" and kill's striped variant: rail count {2,4}.
  std::uint32_t rails = 0;
  /// "stripe" and kill's striped variant: "rr" | "adaptive".
  std::string sched;
  /// "many"/"mux"/"rpc": concurrent stream/client count {4,8,16}.
  std::uint32_t streams = 0;
  /// "mux"/"rpc": slot queue pairs per MuxGroup {1,2,4}.
  std::uint32_t width = 0;
  /// "kill": when the fatal QP kill lands, in permille of the fault horizon.
  std::uint32_t kill_permille = 0;
  /// "batch": WRs per doorbell ring {2,4,8}.
  std::uint32_t batch = 0;
  /// "batch": slices per vectored Sendv posting {1,2,4}.
  std::uint32_t arity = 0;
  std::uint64_t total_bytes = 192 * 1024;
  std::uint64_t max_message = 24 * 1024;
  std::uint64_t buffer_bytes = 64 * 1024;
  /// TraceLog capacity per direction (0 = unbounded).
  std::size_t trace_capacity = 0;
  bool enable_faults = true;
  /// Test-only protocol sabotage (StreamOptions::Sabotage); the run is
  /// then *expected* to fail and the checker must say why.
  bool sabotage_stale_adverts = false;
  bool sabotage_advert_gate = false;
  /// Fingerprint recorded when this entry was written to a corpus (0 =
  /// unknown); replay compares against it.
  std::uint64_t expect_fingerprint = 0;
};

struct TortureResult {
  /// Stream intact, run quiescent, and no invariant violations.
  bool ok = false;
  /// Integrity/progress/quiescence failures observed while driving.
  std::vector<std::string> failures;
  /// Violations reported by the trace invariant checker specifically.
  std::vector<std::string> checker_violations;
  /// Non-fatal checker caveats (truncated traces, undelivered sampled
  /// chunks): the run still passes, but the caveats are printed so a
  /// partially validated run never masquerades as a fully validated one.
  std::vector<std::string> checker_warnings;
  std::uint64_t fingerprint = 0;    ///< ConnectionFingerprint of the run
  std::uint64_t events_checked = 0;
  std::uint64_t faults_armed = 0;
  std::uint64_t faults_applied = 0;
  /// "kill" mode only: fatal kills that took effect and the ResumePair
  /// invocations that recovered from them (zero in every other mode).
  std::uint64_t kills_applied = 0;
  std::uint64_t resumes = 0;

  std::string Describe() const;
};

/// Map a profile name ("fdr" | "iwarp" | "wan") to its HardwareProfile.
/// Throws exs::InvariantViolation on an unknown name.
simnet::HardwareProfile ResolveProfile(const std::string& name);

/// Every mode in table order; `default_sweep_only` keeps just the modes a
/// bare `exs_torture` sweeps.
std::vector<std::string> ModeNames(bool default_sweep_only = false);

/// Execute one fully deterministic torture run.
TortureResult RunTorture(const TortureConfig& cfg);

/// One-line `key=value` corpus encoding of a configuration.
std::string EncodeCorpusEntry(const TortureConfig& cfg);

/// Parse a corpus line; returns false (and leaves `out` untouched) on a
/// malformed line.  Blank lines and lines starting with '#' are rejected
/// here and skipped by LoadCorpus.
bool DecodeCorpusEntry(const std::string& line, TortureConfig* out);

/// Load every entry of a corpus file (skipping blanks and '#' comments).
/// Throws exs::InvariantViolation if the file cannot be read or a
/// non-comment line is malformed.
std::vector<TortureConfig> LoadCorpus(const std::string& path);

/// Append one entry (with its fingerprint) to a corpus file.
void AppendCorpusEntry(const std::string& path, const TortureConfig& cfg,
                       std::uint64_t fingerprint);

}  // namespace exs::torture
