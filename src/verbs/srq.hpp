// Shared receive queue (SRQ) emulation.
//
// The per-connection receive pool is the scalability killer in datacenter
// RDMA deployments (RDMAvisor; Taranov et al.): with N connections each
// pre-posting k receives, receiver memory and posted-WR bookkeeping grow
// O(N·k) even though only a few connections are bursting at any instant.
// The standard remedy — and what this class models — is the verbs SRQ: one
// pool of posted receives that every attached queue pair consumes from, so
// the receiver provisions for the *aggregate* arrival rate instead of the
// per-connection worst case.
//
// Semantics mirrored from hardware:
//   * receives are consumed strictly FIFO from the shared pool, whichever
//     queue pair the consuming message arrived on;
//   * a queue pair attached to an SRQ has no private receive queue —
//     posting to it directly is a usage error;
//   * an arrival finding the pool empty is the receiver-not-ready
//     condition, exactly as with a private queue (the upper layer's
//     admission control and credit accounting must prevent it).
//
// Per-QP fairness is observable: each queue pair counts the receives it
// drew from the pool (QueuePairStats::srq_recvs_consumed), so a connection
// starving the pool shows up in the stats rather than only as its victims'
// RNR drops.
#pragma once

#include <cstdint>

#include "common/fifo.hpp"
#include "verbs/types.hpp"

namespace exs::verbs {

class Device;

class SharedReceiveQueue {
 public:
  explicit SharedReceiveQueue(Device& device) : device_(&device) {}

  SharedReceiveQueue(const SharedReceiveQueue&) = delete;
  SharedReceiveQueue& operator=(const SharedReceiveQueue&) = delete;

  /// Post a receive into the shared pool.  The buffer must be covered by a
  /// registered region on the owning device (same rule as QueuePair).
  void PostRecv(const RecvWorkRequest& wr);

  std::size_t PostedRecvCount() const { return queue_.size(); }
  Device& device() { return *device_; }

  // Aggregate accounting (the per-QP split lives in QueuePairStats).
  std::uint64_t TotalPosted() const { return total_posted_; }
  std::uint64_t TotalConsumed() const { return total_consumed_; }
  /// Arrivals that found the pool empty (surfaced as RNR to the sender).
  std::uint64_t EmptyPops() const { return empty_pops_; }

 private:
  friend class QueuePair;

  /// Consume the pool head; false when empty (RNR at the caller).
  bool Pop(RecvWorkRequest* out);

  Device* device_;
  Fifo<RecvWorkRequest> queue_;
  std::uint64_t total_posted_ = 0;
  std::uint64_t total_consumed_ = 0;
  std::uint64_t empty_pops_ = 0;
};

}  // namespace exs::verbs
