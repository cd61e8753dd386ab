#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <fstream>

namespace perfbench {

std::uint32_t Tracer::Begin(const char* layer, const char* name,
                            std::uint64_t op) {
  Span s;
  s.layer = layer;
  s.name = name;
  s.parent = open_.empty() ? 0 : open_.back();
  s.op = op;
  spans_.push_back(s);
  const auto id = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(id);
  // Stamp last, so the span's own bookkeeping is charged to its parent.
  spans_.back().start_ns = HostNowNs();
  return id;
}

void Tracer::End(std::uint32_t id) {
  spans_[id - 1].end_ns = HostNowNs();
  open_.pop_back();
}

Metrics Tracer::SelfSecondsByLayer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
  }
  Metrics self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.layer] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

double Tracer::RootSeconds() const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.parent == 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::TotalSeconds(const char* name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::uint64_t Tracer::Count(const char* name) const {
  return static_cast<std::uint64_t>(
      std::count_if(spans_.begin(), spans_.end(), [name](const Span& s) {
        return std::strcmp(s.name, name) == 0;
      }));
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return false;
  out << "id,parent,op,layer,name,start_ns,end_ns\n";
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i + 1 << ',' << s.parent << ',' << s.op << ',' << s.layer << ','
        << s.name << ',' << s.start_ns - t0 << ',' << s.end_ns - t0 << '\n';
  }
  return out.good();
}

std::uint64_t Fingerprint(const Rep& rep) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [name, value] : rep.sim) {
    mix(name.data(), name.size());
    mix(&value, sizeof value);
  }
  const std::uint64_t counts[] = {rep.attempted, rep.completed, rep.failed,
                                  rep.setup_events, rep.measured_events};
  mix(counts, sizeof counts);
  mix(rep.latencies.data(), rep.latencies.size() * sizeof(exs::SimDuration));
  return h;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double HeapInUseKb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / 1024.0;
}

double PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

}  // namespace perfbench
