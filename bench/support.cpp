#include "support.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>

#include "common/check.hpp"
#include "common/output.hpp"

namespace exs::bench {

Args Args::Parse(int argc, char** argv) {
  Args args;
  std::optional<int> runs;
  std::optional<std::uint64_t> messages;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both "--flag value" and "--flag=value".
    std::string inline_value;
    bool has_inline_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline_value = true;
    }
    auto next_value = [&](const char* name) -> std::string {
      if (has_inline_value) return inline_value;
      if (i + 1 >= argc) {
        std::cerr << name << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto positive = [&](const char* name, std::uint64_t max) {
      const std::string v = next_value(name);
      std::uint64_t n = 0;
      auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
      if (ec != std::errc{} || end != v.data() + v.size() || n == 0 ||
          n > max) {
        std::cerr << name << " needs a positive integer, got '" << v << "'\n";
        std::exit(2);
      }
      return n;
    };
    if (arg == "--csv") {
      args.csv = true;
    } else if (arg == "--quick") {
      args.quick = true;
    } else if (arg == "--runs") {
      runs = static_cast<int>(positive("--runs", INT_MAX));
    } else if (arg == "--messages") {
      messages = positive("--messages", UINT64_MAX);
    } else if (arg == "--metrics-json") {
      args.metrics_json_path = next_value("--metrics-json");
    } else if (arg == "--timeline-json") {
      args.timeline_json_path = next_value("--timeline-json");
    } else if (arg == "--json") {
      args.results_json_path = next_value("--json");
    } else if (arg == "--latency-json") {
      args.latency_json_path = next_value("--latency-json");
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "options: --csv --quick --runs N --messages N "
                   "--metrics-json FILE --timeline-json FILE --json FILE "
                   "--latency-json FILE\n";
      std::exit(0);
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      std::exit(2);
    }
  }
  args.runs = runs.value_or(args.quick ? 3 : args.runs);
  args.messages = messages.value_or(args.quick ? 150 : args.messages);
  return args;
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

Cell::Cell(std::string s) : text(std::move(s)), json(Quote(text)) {}

Cell::Cell(double v) {
  std::ostringstream oss;
  oss << v;
  text = json = oss.str();
}

Cell Fixed(double v, int precision, const std::string& suffix) {
  return Shown(FormatDouble(v, precision) + suffix, v);
}

Cell Mean(const blast::Metric& m, int precision) {
  return Shown(
      FormatDouble(m.mean, precision) + " ± " + FormatDouble(m.ci95, precision),
      m.mean);
}

Cell Shown(std::string text, const Cell& value) {
  Cell cell = value;
  cell.text = std::move(text);
  return cell;
}

Cell RawJson(std::string json) {
  Cell cell("");
  cell.json = std::move(json);
  return cell;
}

Report::Report(std::string bench, const Args& args, bool record_runs)
    : bench_(std::move(bench)), csv_(args.csv) {
  if (record_runs) {
    Set("runs", args.runs);
    Set("messages", args.messages);
  }
}

void Report::Set(std::string key, const Cell& value) {
  fields_.emplace_back(std::move(key), value.json);
}

void Report::Begin(std::vector<Column> columns, std::string section,
                   std::string label) {
  // Without a section name the rows are the document's one "points" list.
  EXS_CHECK(tables_.empty() || (!section.empty() && section == section_));
  section_ = std::move(section);
  tables_.push_back(Table{std::move(columns), std::move(label), {}});
}

void Report::AddRow(std::vector<Cell> cells) {
  EXS_CHECK(!tables_.empty() && cells.size() == tables_.back().columns.size());
  tables_.back().rows.push_back(std::move(cells));
}

void Report::Print() const {
  EXS_CHECK(!tables_.empty());
  const Table& table = tables_.back();
  // The printed part of every row, headers first.
  std::vector<std::vector<std::string>> lines(table.rows.size() + 1);
  for (std::size_t c = 0; c < table.columns.size(); ++c) {
    if (table.columns[c].header.empty()) continue;
    lines[0].push_back(table.columns[c].header);
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      lines[r + 1].push_back(table.rows[r][c].text);
    }
  }
  std::ostream& os = std::cout;
  if (csv_) {
    for (const auto& cells : lines) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i) os << ",";
        // CSV cells drop the " ± " decoration into a plain dash-free form.
        os << cells[i].substr(0, cells[i].find(" ± "));
      }
      os << "\n";
    }
    return;
  }
  // " ± " is three bytes of UTF-8 punctuation; width accounting uses
  // display length, so count the multibyte character once.
  auto display = [](const std::string& cell) {
    return cell.size() - (cell.find("±") != std::string::npos ? 2 : 0);
  };
  std::vector<std::size_t> widths(lines[0].size(), 0);
  for (const auto& cells : lines) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], display(cells[i]));
    }
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::string pad(widths[i] - display(cells[i]), ' ');
      os << (i == 0 ? cells[i] + pad : pad + cells[i])
         << (i + 1 == cells.size() ? "\n" : "  ");
    }
  };
  emit(lines[0]);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
  for (std::size_t r = 1; r < lines.size(); ++r) emit(lines[r]);
}

std::string Report::Json() const {
  std::ostringstream json;
  json << "{\"bench\":" << Quote(bench_)
       << ",\"schema_version\":" << kBenchJsonSchemaVersion;
  for (const auto& [key, value] : fields_) {
    json << "," << Quote(key) << ":" << value;
  }
  auto points = [&json](const Table& table) {
    json << "\"points\":[";
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      json << (r ? ",{" : "{");
      const char* sep = "";
      for (std::size_t c = 0; c < table.columns.size(); ++c) {
        if (table.columns[c].key.empty()) continue;
        json << sep << Quote(table.columns[c].key) << ":"
             << table.rows[r][c].json;
        sep = ",";
      }
      json << "}";
    }
    json << "]";
  };
  if (section_.empty() && !tables_.empty()) {
    json << ",";
    points(tables_.front());
  } else if (!section_.empty()) {
    json << "," << Quote(section_ + "s") << ":[";
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      json << (i ? ",{" : "{") << Quote(section_) << ":"
           << Quote(tables_[i].label) << ",";
      points(tables_[i]);
      json << "}";
    }
    json << "]";
  }
  json << "}";
  return json.str();
}

void Report::Write(const std::string& path) const {
  if (path.empty()) return;
  WriteOutputOrExit(path, Json());
  if (path != "-") std::cout << "results written to " << path << "\n";
}

std::string FormatDouble(double v, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << v;
  return oss.str();
}

std::string SizeName(std::uint64_t bytes) {
  if (bytes >= kMiB) return std::to_string(bytes / kMiB) + " MiB";
  if (bytes >= kKiB) return std::to_string(bytes / kKiB) + " KiB";
  return std::to_string(bytes) + " B";
}

std::string CheckVerdict(bool ran, std::uint64_t violations) {
  if (!ran) return "skipped";
  return violations == 0 ? "ok" : "FAIL";
}

void PrintBanner(std::ostream& os, const std::string& experiment_id,
                 const std::string& description, const Args& args) {
  os << "=== " << experiment_id << ": " << description << " ===\n";
  os << "(" << args.runs << " runs per point, " << args.messages
     << " messages per run; mean ± 95% CI)\n\n";
}

blast::BlastConfig FdrBaseConfig(const Args& args) {
  blast::BlastConfig c;
  c.profile = simnet::HardwareProfile::FdrInfiniBand();
  c.message_count = args.messages;
  c.exponential_mean_bytes = 256.0 * static_cast<double>(kKiB);
  c.max_message_bytes = 4 * kMiB;
  c.recv_buffer_bytes = 4 * kMiB;
  c.carry_payload = false;  // timing model is payload-independent
  c.metrics_json_path = args.metrics_json_path;
  c.timeline_json_path = args.timeline_json_path;
  return c;
}

blast::BlastConfig WanBaseConfig(const Args& args) {
  blast::BlastConfig c = FdrBaseConfig(args);
  c.profile = simnet::HardwareProfile::RoCE10GWithDelay(Milliseconds(24));
  return c;
}

double PingPongRttUs(const simnet::HardwareProfile& profile,
                     const StreamOptions& opts, std::uint64_t size,
                     int iterations, std::uint64_t seed,
                     spans::LatencyReport* latency) {
  Simulation sim(profile, seed, /*carry_payload=*/false);
  if (latency != nullptr) sim.EnableChunkSpans();
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);

  std::vector<std::uint8_t> ping(size), pong(size), ping_in(size),
      pong_in(size);
  client->RegisterMemory(ping.data(), size);
  client->RegisterMemory(pong_in.data(), size);
  server->RegisterMemory(pong.data(), size);
  server->RegisterMemory(ping_in.data(), size);

  int remaining = iterations;
  SimTime last_recv = 0;
  server->events().SetHandler([&, server = server](const Event& ev) {
    if (ev.type != EventType::kRecvComplete) return;
    server->Send(pong.data(), size);
    server->Recv(ping_in.data(), size, RecvFlags{.waitall = true});
  });
  client->events().SetHandler([&, client = client](const Event& ev) {
    if (ev.type != EventType::kRecvComplete) return;
    if (--remaining <= 0) {
      last_recv = sim.Now();
      return;
    }
    client->Recv(pong_in.data(), size, RecvFlags{.waitall = true});
    client->Send(ping.data(), size);
  });

  server->Recv(ping_in.data(), size, RecvFlags{.waitall = true});
  client->Recv(pong_in.data(), size, RecvFlags{.waitall = true});
  sim.RunFor(Microseconds(50));  // let the initial ADVERTs settle
  const SimTime first_send = sim.Now();
  client->Send(ping.data(), size);
  sim.Run();

  if (latency != nullptr) *latency = sim.chunk_spans()->BuildReport();
  return ToMicroseconds(last_recv - first_send) / iterations;
}

}  // namespace exs::bench
