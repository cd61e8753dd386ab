// Registered, recycled send buffers for one connection's RPC frames.
//
// EXS registers its buffers once, at connection setup, and keeps the
// per-message host work small; this pool does the same for the RPC tier.
// A frame is encoded straight into a pooled buffer that was registered
// with the socket once, at its full capacity, so Socket::Send finds the
// registration instead of making a new one per call.  A buffer goes back
// to the free list only when its send completes (kSendComplete): until
// then the HCA may still be reading it.  The pool therefore grows only to
// the peak number of sends in flight, and its registrations to that count
// times the few capacity doublings a growing frame size can force.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exs/socket.hpp"

namespace exs::rpc {

class FramePool {
 public:
  explicit FramePool(Socket& socket) : socket_(&socket) {}

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// Stage a free buffer of at least `bytes`, registered with the socket,
  /// and return its memory.  The caller encodes into it, sends it, and
  /// hands the send id to Commit before staging the next one.
  std::uint8_t* Stage(std::size_t bytes);

  /// The staged buffer went out as send `send_id`.  `tag` is returned by
  /// Complete (the KV server records the slab slot the send pins).
  void Commit(std::uint64_t send_id, std::int32_t tag = -1);

  /// Send `send_id` completed: its buffer rejoins the free list and its
  /// tag is stored in `*tag`.  False for a send this pool did not carry.
  bool Complete(std::uint64_t send_id, std::int32_t* tag = nullptr);

  /// Sends committed and not yet completed.
  std::size_t in_flight() const { return in_flight_.size() - head_; }
  /// Buffers ever created (each registered once per capacity).
  std::size_t buffers() const { return buffers_.size(); }

 private:
  struct Buffer {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t capacity = 0;
    std::uint64_t send_id = 0;
    std::int32_t tag = -1;
  };

  Socket* socket_;
  std::vector<Buffer> buffers_;
  std::vector<std::uint32_t> free_;
  /// Buffer indices in commit order.  A stream completes its sends in
  /// order, so Complete almost always takes the entry at head_; the dead
  /// prefix is compacted away once it is half the vector.
  std::vector<std::uint32_t> in_flight_;
  std::size_t head_ = 0;
  std::uint32_t staged_ = 0;
};

}  // namespace exs::rpc
