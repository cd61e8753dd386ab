// Shared scaffolding for the figure/table reproduction binaries: CLI
// options and the Report every bench records its results in, which prints
// the aligned table (or CSV) and writes the results JSON from the same
// rows.
//
// Every binary prints the same series the corresponding paper figure
// plots, as mean ± 95% confidence half-width over repeated seeded runs
// (the paper averages 10 runs per point).  Pass --csv for
// machine-readable output, --runs/--messages to trade accuracy for time,
// and --quick for a fast smoke configuration.
#pragma once

#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "blast/blast.hpp"
#include "common/spans.hpp"

namespace exs::bench {

/// Version of the machine-readable results JSON each bench emits (the
/// `schema_version` field).  Bump when a field is added, renamed, or its
/// meaning changes, so CI's regression differ can refuse to compare
/// baselines written under a different schema.
inline constexpr int kBenchJsonSchemaVersion = 2;

struct Args {
  bool csv = false;
  /// --quick sets 3 runs and 150 messages unless --runs/--messages give
  /// them explicitly, in either order.
  int runs = 10;
  std::uint64_t messages = 500;
  bool quick = false;
  /// Exporter outputs for the first run of each configuration ("-" =
  /// stdout).  With several swept configurations the last one wins — meant
  /// for single-point inspection, see docs/OBSERVABILITY.md.
  std::string metrics_json_path;
  std::string timeline_json_path;
  /// Machine-readable results file ("-" = stdout); bench/run_all.sh merges
  /// it into BENCH_streams.json.
  std::string results_json_path;
  /// Per-stage latency provenance (common/spans.hpp) ("-" = stdout): a
  /// LatencyReport::ToJson() document, merged into BENCH_streams.json by
  /// bench/run_all.sh.  Only ext_latency and ext_manystream write one.
  std::string latency_json_path;

  static Args Parse(int argc, char** argv);
};

/// One field of a Report row.  An empty `header` keeps the field out of
/// the table; an empty `key` keeps it out of the JSON.
struct Column {
  std::string header;
  std::string key;
};

/// One value of a Report row: its table text and its JSON text.  Numbers
/// render in JSON as `operator<<` prints them.
struct Cell {
  Cell(std::string s);
  Cell(const char* s) : Cell(std::string(s)) {}
  Cell(double v);
  Cell(bool b) : text(b ? "true" : "false"), json(text) {}
  template <std::integral T>
  Cell(T v) : text(std::to_string(v)), json(text) {}

  std::string text;
  std::string json;
};

/// `v` with `precision` decimals and `suffix` in the table; `v` in JSON.
Cell Fixed(double v, int precision, const std::string& suffix = "");
/// "<mean> ± <ci95>" in the table; the mean in JSON.
Cell Mean(const blast::Metric& m, int precision);
/// `text` in the table; `value`'s JSON.
Cell Shown(std::string text, const Cell& value);
/// An already rendered JSON value, e.g. a nested report.
Cell RawJson(std::string json);

/// A bench's results: run parameters and constants, then one or more
/// tables whose rows are both printed and written as JSON points.
///
///   {"bench":NAME,"schema_version":V,<Set() fields...>,"points":[...]}
///
/// or, when the tables are sections (Begin() with a section name such as
/// "part"), `"parts":[{"part":LABEL,"points":[...]},...]` in place of
/// "points".  A report with no rows has neither.
class Report {
 public:
  /// Records `runs` and `messages` first unless `record_runs` is false
  /// (benches whose points are single deterministic runs).
  Report(std::string bench, const Args& args, bool record_runs = true);

  void Set(std::string key, const Cell& value);
  /// Starts a table; AddRow() and Print() act on it.
  void Begin(std::vector<Column> columns, std::string section = "",
             std::string label = "");
  void AddRow(std::vector<Cell> cells);
  /// Prints the current table to stdout: aligned text (first column
  /// left-aligned, the rest right-aligned), or CSV under --csv.
  void Print() const;
  /// Writes the JSON document to `path` ("-" = stdout; empty = nowhere).
  /// Exits 2 if the write fails.
  void Write(const std::string& path) const;

 private:
  struct Table {
    std::vector<Column> columns;
    std::string label;
    std::vector<std::vector<Cell>> rows;
  };
  std::string Json() const;

  std::string bench_;
  bool csv_;
  std::vector<std::pair<std::string, std::string>> fields_;
  std::string section_;
  std::vector<Table> tables_;
};

std::string FormatDouble(double v, int precision = 1);
/// "512 B", "8 KiB", "2 MiB".
std::string SizeName(std::uint64_t bytes);
/// The check column: "ok", "FAIL", or "skipped" when the checker did not run.
std::string CheckVerdict(bool ran, std::uint64_t violations);

/// Banner naming the experiment and the paper artefact it regenerates.
void PrintBanner(std::ostream& os, const std::string& experiment_id,
                 const std::string& description, const Args& args);

/// The paper's outstanding-operation sweep.
inline const std::vector<std::uint32_t> kOutstandingSweep = {1, 2, 4, 8, 16,
                                                             32};

/// Baseline configuration shared by the FDR InfiniBand experiments:
/// exponential message sizes (mean 256 KiB, max 4 MiB), 4 MiB receive
/// buffers, timing-only payloads.
blast::BlastConfig FdrBaseConfig(const Args& args);

/// The distance testbed: 10 GbE RoCE through the emulator at 48 ms RTT.
blast::BlastConfig WanBaseConfig(const Args& args);

/// Ping-pong on one stream pair: the client sends `size` bytes, the server
/// echoes every fully received ping, and the client sends the next ping on
/// every fully received pong, `iterations` times.  Returns the mean round
/// trip in simulated µs.  A non-null `latency` turns on causal chunk
/// tracing (which schedules nothing, so timing is unchanged) and receives
/// the run's per-stage report.
double PingPongRttUs(const simnet::HardwareProfile& profile,
                     const StreamOptions& opts, std::uint64_t size,
                     int iterations, std::uint64_t seed,
                     spans::LatencyReport* latency = nullptr);

}  // namespace exs::bench
