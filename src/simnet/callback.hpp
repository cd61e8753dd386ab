// Move-only `void()` callable with inline storage: the callback type of
// the event scheduler and the CPU task queue.
//
// Nearly every simulated event is a small lambda — `[this]`, `[this, pkt]`,
// `[this, ev]` — so a callable of up to kInlineBytes is stored in place and
// scheduling it allocates nothing.  Anything larger (or not nothrow-movable)
// falls back to one heap allocation, so every callable is accepted.
// Unlike std::function it is move-only, which also admits move-only
// captures such as std::unique_ptr.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace exs::simnet {

class Callback {
  template <typename F, typename D = std::decay_t<F>>
  using EnableIfCallable =
      std::enable_if_t<!std::is_same_v<D, Callback> &&
                       !std::is_same_v<D, std::nullptr_t> &&
                       std::is_invocable_r_v<void, D&>>;

 public:
  static constexpr std::size_t kInlineBytes = 48;
  /// Pointer alignment keeps a Callback at 56 bytes; over-aligned
  /// callables take the heap path.
  static constexpr std::size_t kAlign = alignof(void*);

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT: mirrors std::function

  template <typename F, typename = EnableIfCallable<F>>
  Callback(F&& f) {  // NOLINT: implicit, like std::function
    Construct(std::forward<F>(f));
  }

  /// Replace the held callable, constructing the new one in place.
  template <typename F, typename = EnableIfCallable<F>>
  Callback& operator=(F&& f) {
    Reset();
    Construct(std::forward<F>(f));
    return *this;
  }

  Callback(Callback&& other) noexcept { TakeFrom(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      Reset();
      TakeFrom(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  void operator()() { ops_->invoke(storage_); }

  /// Destroy the held callable (and its captures) now.
  void Reset() noexcept {
    if (ops_ == nullptr) return;
    if (ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Null for trivially copyable inline callables: a byte copy moves
    // them and there is nothing to destroy.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename F>
  void Construct(F&& f) {
    using D = std::decay_t<F>;
    if (IsNull(f)) return;
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  template <typename D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineBytes && alignof(D) <= kAlign &&
      std::is_nothrow_move_constructible_v<D>;
  template <typename D>
  static constexpr bool kTrivial = std::is_trivially_copyable_v<D>;

  template <typename D>
  static bool IsNull(const D& f) {
    if constexpr (std::is_pointer_v<D> ||
                  std::is_same_v<D, std::function<void()>>) {
      return !f;
    } else {
      return false;
    }
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*std::launder(static_cast<D*>(s)))(); },
      kTrivial<D> ? nullptr
                  : +[](void* dst, void* src) noexcept {
                      D* from = std::launder(static_cast<D*>(src));
                      ::new (dst) D(std::move(*from));
                      from->~D();
                    },
      kTrivial<D> ? nullptr
                  : +[](void* s) noexcept {
                      std::launder(static_cast<D*>(s))->~D();
                    },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**static_cast<D**>(s))(); },
      nullptr,  // moving the owning pointer is a byte copy
      [](void* s) noexcept { delete *static_cast<D**>(s); },
  };

  void TakeFrom(Callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, kInlineBytes);
    }
    other.ops_ = nullptr;
  }

  alignas(kAlign) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace exs::simnet
