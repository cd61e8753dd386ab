#include "exs/loadgen/popularity.hpp"

#include <map>
#include <mutex>
#include <utility>

namespace exs::loadgen {

namespace {

double Zeta(std::uint64_t n, double theta) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

/// Zeta(n, theta), summed once per key space: every client of a workload
/// builds its own sampler over the same (n, theta), and the O(n) sum
/// dominated their setup.  The same loop fills the cache, so the values
/// are bit-identical to an uncached sum.
double SharedZeta(std::uint64_t n, double theta) {
  static std::mutex mu;
  static std::map<std::pair<std::uint64_t, double>, double> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto [it, inserted] = cache.try_emplace({n, theta}, 0.0);
  if (inserted) it->second = Zeta(n, theta);
  return it->second;
}

}  // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double theta)
    : n_(n == 0 ? 1 : n), theta_(theta) {
  zetan_ = SharedZeta(n_, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  const double zeta2 = Zeta(2 < n_ ? 2 : n_, theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

std::uint64_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  auto rank = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

SizeMix::SizeMix(std::vector<Class> classes) : classes_(std::move(classes)) {
  if (classes_.empty()) classes_.push_back({1, 1.0});
  double total = 0.0;
  for (const Class& c : classes_) total += c.weight;
  double running = 0.0;
  cumulative_.reserve(classes_.size());
  for (const Class& c : classes_) {
    running += c.weight / total;
    cumulative_.push_back(running);
  }
  cumulative_.back() = 1.0;  // absorb rounding: the last class is a catch-all
}

std::uint32_t SizeMix::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  for (std::size_t i = 0; i < cumulative_.size(); ++i) {
    if (u < cumulative_[i]) return classes_[i].bytes;
  }
  return classes_.back().bytes;
}

double SizeMix::MeanBytes() const {
  double total = 0.0;
  double weighted = 0.0;
  for (const Class& c : classes_) {
    total += c.weight;
    weighted += c.weight * static_cast<double>(c.bytes);
  }
  return weighted / total;
}

std::uint32_t SizeMix::MaxBytes() const {
  std::uint32_t max = 0;
  for (const Class& c : classes_) {
    if (c.bytes > max) max = c.bytes;
  }
  return max;
}

}  // namespace exs::loadgen
