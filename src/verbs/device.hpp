// A node's RDMA device: owns memory registrations and manufactures
// completion queues bound to the node's CPU.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "simnet/fabric.hpp"
#include "verbs/completion.hpp"
#include "verbs/memory.hpp"

namespace exs::verbs {

/// Observable counters of the MR registration cache (and the registration
/// cost model): `registrations` counts *actual* device registrations —
/// cache misses and uncached RegisterMemory calls alike — while
/// `cache_hits` counts pins satisfied without touching the device.
struct MrCacheStats {
  std::uint64_t registrations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t evictions = 0;
};

class Device {
 public:
  /// `carry_payload` controls whether transfers move real bytes between
  /// buffers.  Tests and examples keep it on (data-integrity checks);
  /// large benchmark sweeps turn it off — the timing model is unaffected.
  Device(simnet::Fabric& fabric, std::size_t node_index,
         bool carry_payload = true);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  MemoryRegionPtr RegisterMemory(void* addr, std::size_t length);
  void DeregisterMemory(const MemoryRegionPtr& mr);

  /// Charge the profile's mr_register_cost (page pinning + MTT update) as
  /// simulated host-CPU time on every actual registration.  Off by
  /// default — the seed model registered for free, and recorded artefacts
  /// depend on that — so timing changes only when a run opts in.
  void EnableMrCostModel(bool on = true) { mr_cost_armed_ = on; }
  bool mr_cost_armed() const { return mr_cost_armed_; }
  /// Total simulated time charged for registrations so far.
  SimDuration MrTimeCharged() const { return mr_time_charged_; }

  /// Arm an LRU registration cache of at most `capacity` *unpinned*
  /// regions keyed by (addr, length) — the rdma-pipe buffer-reuse pattern.
  /// Pinned entries never count against capacity and are never evicted.
  void EnableMrCache(std::size_t capacity);
  bool mr_cache_enabled() const { return mr_cache_capacity_ > 0; }

  /// Pin a registration through the cache: a (addr, length) pair seen
  /// before (and still cached) is returned without touching the device —
  /// a cache hit; otherwise the region is registered (paying the cost
  /// model) and enters the cache pinned.  Each pin must be matched by an
  /// UnpinCached before the entry becomes evictable.  Requires
  /// EnableMrCache; falls back to plain RegisterMemory otherwise.
  MemoryRegionPtr RegisterMemoryCached(void* addr, std::size_t length);

  /// Drop one pin.  The registration stays valid and cached (warm for the
  /// next RegisterMemoryCached of the same buffer) until LRU eviction
  /// deregisters it.  Unpinning a region the cache does not hold is a
  /// no-op, so callers may release uncached regions uniformly.
  void UnpinCached(const MemoryRegionPtr& mr);

  const MrCacheStats& mr_cache_stats() const { return mr_cache_stats_; }
  /// Mirror future registration/cache-hit counts into registry counters
  /// (either may be null): the `mr.registrations` / `mr.cache_hits`
  /// instruments of docs/OBSERVABILITY.md.
  void SetMrInstruments(metrics::Counter* registrations,
                        metrics::Counter* cache_hits) {
    mr_registrations_counter_ = registrations;
    mr_cache_hits_counter_ = cache_hits;
  }

  /// Key lookups used by the data path; null when unknown or invalidated.
  const MemoryRegion* FindByLkey(std::uint32_t lkey) const;
  const MemoryRegion* FindByRkey(std::uint32_t rkey) const;

  /// A completion queue whose notification path runs on this node's CPU
  /// with the profile's event-notification costs.
  std::unique_ptr<CompletionQueue> CreateCompletionQueue();

  simnet::Fabric& fabric() { return *fabric_; }
  simnet::EventScheduler& scheduler() { return fabric_->scheduler(); }
  simnet::Node& node() { return fabric_->node(node_index_); }
  std::size_t node_index() const { return node_index_; }
  const simnet::HardwareProfile& profile() const { return fabric_->profile(); }
  bool carry_payload() const { return carry_payload_; }
  std::uint32_t max_inline() const { return profile().max_inline; }

  std::size_t RegisteredRegionCount() const { return live_regions_; }

  /// Lifetime count of queue pairs constructed against this device.  The
  /// verbs-state budget signal for the mux benches: dedicated-per-stream
  /// wiring grows this linearly with streams, a shared QP pool does not.
  std::uint64_t QueuePairsCreated() const { return qps_created_; }
  void NoteQueuePairCreated() { ++qps_created_; }

 private:
  struct CacheEntry {
    std::uint64_t addr = 0;
    std::uint64_t length = 0;
    MemoryRegionPtr mr;
    std::uint32_t pins = 0;
  };
  using CacheList = std::list<CacheEntry>;  // front = most recently used
  using CacheKey = std::pair<std::uint64_t, std::uint64_t>;

  /// Regions whose keys 2i+1 and 2i+2 both fit in 32 bits.
  static constexpr std::size_t kMaxRegions = (UINT32_MAX - 1) / 2;

  void ChargeRegistration();
  void EvictOverCapacity();

  simnet::Fabric* fabric_;
  std::size_t node_index_;
  bool carry_payload_;
  std::uint64_t cq_seed_ = 0;
  std::uint64_t qps_created_ = 0;
  /// Every region ever registered, indexed densely by its keys: region i
  /// holds lkey 2i+1 and rkey 2i+2.  A deregistered region leaves a null
  /// slot, so a stale key never finds a region; a slot costs 16 bytes for
  /// the device's lifetime.
  std::vector<MemoryRegionPtr> regions_;
  std::size_t live_regions_ = 0;

  bool mr_cost_armed_ = false;
  SimDuration mr_time_charged_ = 0;
  std::size_t mr_cache_capacity_ = 0;
  CacheList mr_cache_;
  std::map<CacheKey, CacheList::iterator> mr_cache_index_;
  MrCacheStats mr_cache_stats_;
  metrics::Counter* mr_registrations_counter_ = nullptr;
  metrics::Counter* mr_cache_hits_counter_ = nullptr;
};

}  // namespace exs::verbs
