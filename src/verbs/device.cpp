#include "verbs/device.hpp"

#include "common/check.hpp"

namespace exs::verbs {

Device::Device(simnet::Fabric& fabric, std::size_t node_index,
               bool carry_payload)
    : fabric_(&fabric), node_index_(node_index),
      carry_payload_(carry_payload) {
  EXS_CHECK(node_index < 2);
}

MemoryRegionPtr Device::RegisterMemory(void* addr, std::size_t length) {
  EXS_CHECK_MSG(addr != nullptr && length > 0,
                "memory registration needs a real region");
  // Distinct lkey/rkey, as on real hardware: region i gets 2i+1 and 2i+2.
  EXS_CHECK_MSG(regions_.size() < kMaxRegions, "memory key space exhausted");
  auto lkey = static_cast<std::uint32_t>(2 * regions_.size() + 1);
  auto mr = std::make_shared<MemoryRegion>(addr, length, lkey, lkey + 1);
  regions_.push_back(mr);
  ++live_regions_;
  ++mr_cache_stats_.registrations;
  if (mr_registrations_counter_ != nullptr) {
    mr_registrations_counter_->Increment();
  }
  ChargeRegistration();
  return mr;
}

void Device::ChargeRegistration() {
  if (!mr_cost_armed_) return;
  SimDuration cost = profile().mr_register_cost;
  if (cost == 0) return;
  // ibv_reg_mr burns host CPU (kernel transition, page pinning, MTT
  // writes).  Occupy the node CPU for that long: registration itself
  // returns immediately — the syscall is synchronous in real life, but
  // what the simulation observes is that other host work (completion
  // handlers, pumps) queues behind it.
  mr_time_charged_ += cost;
  node().cpu().Submit(cost, [] {});
}

void Device::EnableMrCache(std::size_t capacity) {
  EXS_CHECK_MSG(capacity > 0, "MR cache needs a nonzero capacity");
  mr_cache_capacity_ = capacity;
}

MemoryRegionPtr Device::RegisterMemoryCached(void* addr, std::size_t length) {
  if (mr_cache_capacity_ == 0) return RegisterMemory(addr, length);
  CacheKey key{reinterpret_cast<std::uint64_t>(addr), length};
  auto it = mr_cache_index_.find(key);
  if (it != mr_cache_index_.end()) {
    // Hit: re-pin and refresh recency — no device work, no cost charge.
    mr_cache_.splice(mr_cache_.begin(), mr_cache_, it->second);
    CacheEntry& entry = *it->second;
    ++entry.pins;
    ++mr_cache_stats_.cache_hits;
    if (mr_cache_hits_counter_ != nullptr) mr_cache_hits_counter_->Increment();
    return entry.mr;
  }
  MemoryRegionPtr mr = RegisterMemory(addr, length);
  mr_cache_.push_front(CacheEntry{key.first, key.second, mr, 1});
  mr_cache_index_.emplace(key, mr_cache_.begin());
  EvictOverCapacity();
  return mr;
}

void Device::UnpinCached(const MemoryRegionPtr& mr) {
  EXS_CHECK(mr != nullptr);
  CacheKey key{reinterpret_cast<std::uint64_t>(mr->addr()), mr->length()};
  auto it = mr_cache_index_.find(key);
  if (it == mr_cache_index_.end() || it->second->mr != mr) return;
  CacheEntry& entry = *it->second;
  EXS_CHECK_MSG(entry.pins > 0, "UnpinCached without a matching pin");
  --entry.pins;
  EvictOverCapacity();
}

void Device::EvictOverCapacity() {
  // Only unpinned entries count against capacity (pinned regions are in
  // use by in-flight work requests and must stay registered), so walk from
  // the LRU end deregistering cold unpinned registrations until the
  // unpinned population fits.
  std::size_t unpinned = 0;
  for (const CacheEntry& entry : mr_cache_) {
    if (entry.pins == 0) ++unpinned;
  }
  for (auto it = mr_cache_.rbegin();
       it != mr_cache_.rend() && unpinned > mr_cache_capacity_;) {
    if (it->pins != 0) {
      ++it;
      continue;
    }
    DeregisterMemory(it->mr);
    ++mr_cache_stats_.evictions;
    --unpinned;
    mr_cache_index_.erase(CacheKey{it->addr, it->length});
    it = decltype(it){mr_cache_.erase(std::next(it).base())};
  }
}

void Device::DeregisterMemory(const MemoryRegionPtr& mr) {
  EXS_CHECK(mr != nullptr);
  mr->invalidated_ = true;
  // Already deregistered, or registered on another device.
  if (FindByLkey(mr->lkey()) != mr.get()) return;
  regions_[mr->lkey() / 2].reset();
  --live_regions_;
}

const MemoryRegion* Device::FindByLkey(std::uint32_t lkey) const {
  // Odd keys are lkeys: 2i+1 -> i.
  if (lkey % 2 == 0 || lkey / 2 >= regions_.size()) return nullptr;
  return regions_[lkey / 2].get();
}

const MemoryRegion* Device::FindByRkey(std::uint32_t rkey) const {
  // Even nonzero keys are rkeys: 2i+2 -> i.
  if (rkey % 2 != 0 || rkey == 0 || rkey / 2 - 1 >= regions_.size()) {
    return nullptr;
  }
  return regions_[rkey / 2 - 1].get();
}

std::unique_ptr<CompletionQueue> Device::CreateCompletionQueue() {
  const auto& p = profile();
  SimDuration notify = p.busy_polling ? p.busy_poll_check
                                      : p.completion_notify_delay;
  auto cq = std::make_unique<CompletionQueue>(scheduler(), node().cpu(),
                                              notify, p.per_event_cpu);
  // A spinning poller has no wake-up variance.
  cq->SetNotifyJitter(p.busy_polling ? 0.0 : p.notify_jitter,
                      fabric_->seed() * 0x9d2c5680ULL +
                          (node_index_ + 1) * 6364136223846793005ULL +
                          ++cq_seed_);
  return cq;
}

}  // namespace exs::verbs
