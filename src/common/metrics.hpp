// Metrics instruments for a discrete-event simulation.
//
// The protocol's hot paths record into pre-resolved instrument pointers —
// no name lookups per event — and a Registry owns the instruments and
// renders deterministic JSON/CSV snapshots.  Everything is keyed on
// simulated time: the histograms bucket picosecond latencies, and the
// time-series sampler weights values by the sim-time they were held, which
// is the only averaging that makes sense under a discrete-event clock
// (a value held for 1 ms must count 10^6 times more than one held 1 ns).
//
// Determinism matters more than fidelity here: identical seeded runs must
// produce bit-identical snapshots, so sample retention uses a fixed
// capacity with deterministic stride doubling, never wall-clock or
// reservoir randomness.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sim_clock.hpp"
#include "common/units.hpp"

namespace exs::metrics {

/// Monotonically increasing event count (messages, bytes, switches).
class Counter {
 public:
  void Increment() { ++value_; }
  void Add(std::uint64_t n) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value (phase number, queue depth).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Log2-bucketed histogram for latencies and sizes.  Bucket 0 holds the
/// value 0; bucket b >= 1 holds values in [2^(b-1), 2^b).  64 buckets
/// cover the full uint64 range, so Record never clips.  The bucket array
/// lives out of line and is allocated by the first Record: most of a
/// socket's histograms are never recorded, and an empty one costs only
/// its five scalars.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void Record(std::uint64_t v);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Value below which `p` percent of recordings fall, interpolated
  /// linearly inside the containing bucket.  p in [0, 100].
  double Percentile(double p) const;

  /// Per-bucket counts (all zero before the first Record).
  std::span<const std::uint64_t, kBuckets> buckets() const;
  static std::size_t BucketIndex(std::uint64_t v);
  /// Smallest value the bucket counts.
  static std::uint64_t BucketLowerBound(std::size_t bucket);

 private:
  std::unique_ptr<std::uint64_t[]> buckets_;  ///< kBuckets; null until Record
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Piecewise-constant value tracked against the simulated clock: Record()
/// states "the value is v from sim-time t onward".  The integral of the
/// step function gives exact time-weighted averages regardless of how many
/// samples are retained for plotting.
class TimeWeightedSeries {
 public:
  struct Sample {
    SimTime time = 0;
    double value = 0.0;
  };

  /// Retained-sample capacity; when reached, every other sample is dropped
  /// and the minimum retention stride doubles (deterministic decimation).
  static constexpr std::size_t kMaxSamples = 2048;

  void Record(SimTime now, double value);

  /// Time-weighted mean over [first Record, now].  Zero before any Record.
  double Average(SimTime now) const;
  double last() const { return last_value_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  std::uint64_t count() const { return count_; }
  SimTime start_time() const { return start_; }

  const std::vector<Sample>& samples() const { return samples_; }

 private:
  bool started_ = false;
  SimTime start_ = 0;
  SimTime last_time_ = 0;
  double last_value_ = 0.0;
  double integral_ = 0.0;  ///< of value dt since start_
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t count_ = 0;
  std::vector<Sample> samples_;
  SimDuration sample_stride_ = 0;
};

/// One instrument of a static schema: a name and unit with static storage
/// (a table entry, not a per-instance string).
struct InstrumentSpec {
  std::string_view name;
  std::string_view unit;
};

/// Read-only handle a registry view hands out for one instrument.
template <typename T>
class InstrumentRef {
 public:
  explicit InstrumentRef(const T* instrument) : instrument_(instrument) {}
  const T* get() const { return instrument_; }
  const T* operator->() const { return instrument_; }
  const T& operator*() const { return *instrument_; }

 private:
  const T* instrument_;
};

/// Named instrument store with two tiers behind one name space:
///
///  * a static schema per kind, adopted with Bind(): names and units come
///    from a caller's constant table, the instruments from a caller-owned
///    array (a socket's flat instrument block), so declaring them costs no
///    allocation;
///  * by-name instruments, created on first Get* of a name the schema
///    does not declare (rail<i>.*, mux.*, engine.*, pool.*, ...).
///
/// Get* returns the same instrument for the same name afterwards, whichever
/// tier holds it.  Every bound instrument is part of every snapshot,
/// recorded or not, and snapshots iterate both tiers merged in name order,
/// so output is stable across runs.
class Registry {
 public:
  Counter& GetCounter(const std::string& name, const std::string& unit = "");
  Gauge& GetGauge(const std::string& name, const std::string& unit = "");
  Histogram& GetHistogram(const std::string& name,
                          const std::string& unit = "");
  TimeWeightedSeries& GetSeries(const std::string& name,
                                const std::string& unit = "");

  /// Declare `specs` (sorted by name, static storage) as this registry's
  /// schema for one kind; `instruments[i]` holds `specs[i]`.  Both must
  /// outlive the registry, and no by-name instrument may exist yet.
  void Bind(std::span<const InstrumentSpec> specs, Counter* instruments);
  void Bind(std::span<const InstrumentSpec> specs, Gauge* instruments);
  void Bind(std::span<const InstrumentSpec> specs, Histogram* instruments);
  void Bind(std::span<const InstrumentSpec> specs,
            TimeWeightedSeries* instruments);

  /// A by-name instrument: its unit and the instrument itself, in the node.
  template <typename T>
  struct Named {
    std::string unit;
    T instrument;
  };
  template <typename T>
  using NamedMap = std::map<std::string, Named<T>, std::less<>>;

  /// Instruments of one kind from both tiers, merged in name order.  A
  /// map-like read-only view: find/count/at/begin/end, entries
  /// {name, {unit, instrument}}.  Iterators outlive the view they came
  /// from and stay valid while the registry creates no instrument.
  template <typename T>
  class View {
   public:
    struct Entry {
      std::string_view unit;
      InstrumentRef<T> instrument;
    };
    using value_type = std::pair<std::string_view, Entry>;

    class iterator {
     public:
      struct Arrow {
        value_type entry;
        const value_type* operator->() const { return &entry; }
      };

      value_type operator*() const;
      Arrow operator->() const { return Arrow{**this}; }
      iterator& operator++();
      bool operator==(const iterator& o) const {
        return fixed_ == o.fixed_ && named_ == o.named_;
      }

     private:
      friend class View;
      iterator(const View* view, std::size_t fixed,
               typename NamedMap<T>::const_iterator named);
      /// True when the schema entry comes next in name order.
      bool FixedFirst() const;

      std::span<const InstrumentSpec> specs_;
      const T* instruments_ = nullptr;
      const NamedMap<T>* map_ = nullptr;
      std::size_t fixed_ = 0;
      typename NamedMap<T>::const_iterator named_;
    };
    iterator begin() const { return iterator(this, 0, map_->begin()); }
    iterator end() const {
      return iterator(this, specs_.size(), map_->end());
    }
    iterator find(std::string_view name) const;
    std::size_t count(std::string_view name) const {
      return find(name) == end() ? 0 : 1;
    }
    /// Throws std::out_of_range for an unknown name, like std::map::at.
    Entry at(std::string_view name) const;

   private:
    friend class Registry;
    View(std::span<const InstrumentSpec> specs, const T* instruments,
         const NamedMap<T>* map)
        : specs_(specs), instruments_(instruments), map_(map) {}

    std::span<const InstrumentSpec> specs_;
    const T* instruments_;
    const NamedMap<T>* map_;
  };

  View<Counter> counters() const { return counters_.view(); }
  View<Gauge> gauges() const { return gauges_.view(); }
  View<Histogram> histograms() const { return histograms_.view(); }
  View<TimeWeightedSeries> series() const { return series_.view(); }

  /// JSON object {"counters":{...},"gauges":{...},"histograms":{...},
  /// "series":{...}}.  `now` closes the open interval of every series.
  std::string ToJson(SimTime now) const;

  /// Flat rows "name,kind,unit,field,value" (one row per scalar).
  std::string ToCsv(SimTime now) const;

 private:
  /// Both tiers of one kind.
  template <typename T>
  struct Tier {
    std::span<const InstrumentSpec> specs;
    T* instruments = nullptr;
    NamedMap<T> named;

    T& Get(const std::string& name, const std::string& unit);
    View<T> view() const { return View<T>(specs, instruments, &named); }
  };

  Tier<Counter> counters_;
  Tier<Gauge> gauges_;
  Tier<Histogram> histograms_;
  Tier<TimeWeightedSeries> series_;
};

/// Deterministic JSON number rendering shared by the exporters: integral
/// values print without a fraction, everything else with enough digits to
/// round-trip.
std::string FormatJsonNumber(double v);
void AppendJsonString(std::string* out, std::string_view s);

// ---------------------------------------------------------------------------
// Registry::View
// ---------------------------------------------------------------------------

template <typename T>
Registry::View<T>::iterator::iterator(
    const View* view, std::size_t fixed,
    typename NamedMap<T>::const_iterator named)
    : specs_(view->specs_),
      instruments_(view->instruments_),
      map_(view->map_),
      fixed_(fixed),
      named_(named) {}

template <typename T>
bool Registry::View<T>::iterator::FixedFirst() const {
  return fixed_ < specs_.size() &&
         (named_ == map_->end() || specs_[fixed_].name < named_->first);
}

template <typename T>
typename Registry::View<T>::value_type Registry::View<T>::iterator::operator*()
    const {
  if (FixedFirst()) {
    const InstrumentSpec& spec = specs_[fixed_];
    return {spec.name,
            Entry{spec.unit, InstrumentRef<T>(&instruments_[fixed_])}};
  }
  return {named_->first, Entry{named_->second.unit,
                               InstrumentRef<T>(&named_->second.instrument)}};
}

template <typename T>
typename Registry::View<T>::iterator&
Registry::View<T>::iterator::operator++() {
  if (FixedFirst()) {
    ++fixed_;
  } else {
    ++named_;
  }
  return *this;
}

template <typename T>
typename Registry::View<T>::iterator Registry::View<T>::find(
    std::string_view name) const {
  auto spec = std::lower_bound(
      specs_.begin(), specs_.end(), name,
      [](const InstrumentSpec& s, std::string_view n) { return s.name < n; });
  const auto fixed = static_cast<std::size_t>(spec - specs_.begin());
  if (spec != specs_.end() && spec->name == name) {
    return iterator(this, fixed, map_->lower_bound(name));
  }
  auto named = map_->find(name);
  return named == map_->end() ? end() : iterator(this, fixed, named);
}

template <typename T>
typename Registry::View<T>::Entry Registry::View<T>::at(
    std::string_view name) const {
  iterator it = find(name);
  if (it == end()) {
    throw std::out_of_range("no instrument named " + std::string(name));
  }
  return (*it).second;
}

}  // namespace exs::metrics
