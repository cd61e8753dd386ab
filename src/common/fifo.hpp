// A first-in, first-out queue on a power-of-two ring.
//
// The protocol's per-connection queues — the sender's ADVERT queue q_A,
// its chunk queue and sent log, the receiver's pending receives, the
// socket's event queue, the verbs receive and completion queues — are
// empty for most of a connection's life, and one simulation holds tens of
// thousands of connections.  A deque allocates a map and a node as soon
// as it is constructed; a Fifo allocates nothing until its first push,
// grows by doubling and never shrinks, so a queue that reached its working
// depth once serves a steady push/pop stream without allocating again.
//
// Reference rule: a push may move every element into a bigger ring, so a
// reference, pointer or iterator into a Fifo is invalid after a push to
// that same Fifo (a deque keeps references across push_back; a Fifo
// does not).  pop_front invalidates only the popped element.  Hold
// front()/back()/[i] across a call only when that call cannot push to the
// same Fifo.
#pragma once

#include <cassert>
#include <cstddef>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>

namespace exs {

template <typename T>
class Fifo {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "growth relocates elements by move and must not throw");

  template <bool kConst>
  class Iter;

 public:
  using value_type = T;
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  Fifo() noexcept = default;
  // Delegating to the default constructor makes the object complete before
  // the copies run, so the destructor cleans up if one of them throws.
  Fifo(const Fifo& other) : Fifo() {
    for (const T& value : other) push_back(value);
  }
  Fifo(Fifo&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  /// Copy- and move-assignment in one: `other` is built by the matching
  /// constructor, then swapped in.
  Fifo& operator=(Fifo other) noexcept {
    Swap(other);
    return *this;
  }
  ~Fifo() {
    clear();
    std::allocator<T>{}.deallocate(slots_, capacity_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return *Slot(i);
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return *Slot(i);
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) return GrowAndEmplace(std::forward<Args>(args)...);
    T* added = std::construct_at(Slot(size_), std::forward<Args>(args)...);
    ++size_;
    return *added;
  }

  void pop_front() {
    assert(size_ > 0);
    std::destroy_at(Slot(0));
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  /// Destroy every element; the ring keeps its capacity.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) std::destroy_at(Slot(i));
    head_ = 0;
    size_ = 0;
  }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  static constexpr std::size_t kInitialCapacity = 4;

  template <bool kConst>
  class Iter {
    using Owner = std::conditional_t<kConst, const Fifo, Fifo>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<kConst, const T*, T*>;
    using reference = std::conditional_t<kConst, const T&, T&>;

    Iter() = default;
    reference operator*() const { return (*owner_)[index_]; }
    pointer operator->() const { return &**this; }
    Iter& operator++() {
      ++index_;
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++index_;
      return old;
    }
    bool operator==(const Iter& other) const {
      return owner_ == other.owner_ && index_ == other.index_;
    }

   private:
    friend class Fifo;
    Iter(Owner* owner, std::size_t index) : owner_(owner), index_(index) {}

    Owner* owner_ = nullptr;
    std::size_t index_ = 0;
  };

  void Swap(Fifo& other) noexcept {
    std::swap(slots_, other.slots_);
    std::swap(capacity_, other.capacity_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
  }

  T* Slot(std::size_t i) const {
    return slots_ + ((head_ + i) & (capacity_ - 1));
  }

  template <typename... Args>
  T& GrowAndEmplace(Args&&... args) {
    const std::size_t bigger =
        capacity_ == 0 ? kInitialCapacity : 2 * capacity_;
    std::allocator<T> alloc;
    T* slots = alloc.allocate(bigger);
    // Build the new element before relocating the old ones: `args` may
    // refer to an element of this Fifo.
    T* added = nullptr;
    try {
      added = std::construct_at(slots + size_, std::forward<Args>(args)...);
    } catch (...) {
      alloc.deallocate(slots, bigger);
      throw;
    }
    for (std::size_t i = 0; i < size_; ++i) {
      T* old = Slot(i);
      std::construct_at(slots + i, std::move(*old));
      std::destroy_at(old);
    }
    alloc.deallocate(slots_, capacity_);
    slots_ = slots;
    capacity_ = bigger;
    head_ = 0;
    ++size_;
    return *added;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;  ///< zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace exs
