#include "exs/rpc/frame_pool.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace exs::rpc {

namespace {
/// Smallest buffer the pool makes: a GET request frame with a short key.
constexpr std::size_t kMinCapacity = 64;
}  // namespace

std::uint8_t* FramePool::Stage(std::size_t bytes) {
  if (free_.empty()) {
    free_.push_back(static_cast<std::uint32_t>(buffers_.size()));
    buffers_.emplace_back();
  }
  staged_ = free_.back();
  free_.pop_back();
  Buffer& buf = buffers_[staged_];
  if (buf.capacity < bytes) {
    // Grow to the next power of two and register the new memory once, at
    // its full capacity.  The old region stays registered with the device:
    // nothing references it any more, but deregistering is not modelled
    // for socket-owned regions.
    buf.capacity = std::bit_ceil(std::max(bytes, kMinCapacity));
    buf.data = std::make_unique_for_overwrite<std::uint8_t[]>(buf.capacity);
    socket_->RegisterMemory(buf.data.get(), buf.capacity);
  }
  return buf.data.get();
}

void FramePool::Commit(std::uint64_t send_id, std::int32_t tag) {
  Buffer& buf = buffers_[staged_];
  buf.send_id = send_id;
  buf.tag = tag;
  in_flight_.push_back(staged_);
}

bool FramePool::Complete(std::uint64_t send_id, std::int32_t* tag) {
  auto it = std::find_if(
      in_flight_.begin() + static_cast<std::ptrdiff_t>(head_),
      in_flight_.end(),
      [&](std::uint32_t i) { return buffers_[i].send_id == send_id; });
  if (it == in_flight_.end()) return false;
  const std::uint32_t index = *it;
  if (tag != nullptr) *tag = buffers_[index].tag;
  free_.push_back(index);
  // In-order completion pops the head; an out-of-order one shifts the
  // older entries up over it, keeping commit order.
  std::copy_backward(in_flight_.begin() + static_cast<std::ptrdiff_t>(head_),
                     it, it + 1);
  ++head_;
  if (head_ == in_flight_.size()) {
    in_flight_.clear();
    head_ = 0;
  } else if (2 * head_ >= in_flight_.size()) {
    in_flight_.erase(in_flight_.begin(),
                     in_flight_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return true;
}

}  // namespace exs::rpc
