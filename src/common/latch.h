// Short-term latches for page-level synchronization.
//
// §2.1.3 of the paper: cache writes "acquire short term latches for the
// duration of the cache writes" and "we can give up a write operation if the
// latch is not immediately available". TryLatchGuard implements exactly that
// give-up discipline.

#pragma once

#include <atomic>
#include <cstdint>

namespace nblb {

/// \brief A tiny test-and-set spin latch. Not recursive, not fair — intended
/// for critical sections of a few hundred nanoseconds (in-page cache writes).
class SpinLatch {
 public:
  SpinLatch() = default;
  SpinLatch(const SpinLatch&) = delete;
  SpinLatch& operator=(const SpinLatch&) = delete;

  void Lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      // Spin. Sections are short by construction.
    }
  }

  /// \brief Attempts to acquire without blocking. Returns true on success.
  bool TryLock() { return !flag_.test_and_set(std::memory_order_acquire); }

  void Unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

/// \brief RAII blocking guard.
class LatchGuard {
 public:
  explicit LatchGuard(SpinLatch& latch) : latch_(latch) { latch_.Lock(); }
  ~LatchGuard() { latch_.Unlock(); }
  LatchGuard(const LatchGuard&) = delete;
  LatchGuard& operator=(const LatchGuard&) = delete;

 private:
  SpinLatch& latch_;
};

/// \brief RAII try-guard: holds the latch only if it was immediately free.
///
/// Callers check acquired() and skip the protected work otherwise — the
/// paper's "give up a write operation if the latch is not immediately
/// available".
class TryLatchGuard {
 public:
  explicit TryLatchGuard(SpinLatch& latch)
      : latch_(latch), acquired_(latch.TryLock()) {}
  ~TryLatchGuard() {
    if (acquired_) latch_.Unlock();
  }
  TryLatchGuard(const TryLatchGuard&) = delete;
  TryLatchGuard& operator=(const TryLatchGuard&) = delete;

  bool acquired() const { return acquired_; }

 private:
  SpinLatch& latch_;
  bool acquired_;
};

}  // namespace nblb
