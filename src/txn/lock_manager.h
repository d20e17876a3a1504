// Locking per Figure 8:
//  * a global reader/writer lock — read-only queries hold it shared for
//    their duration; a committing transaction holds it exclusive only
//    for the (short) commit window;
//  * per-logical-page write locks, acquired incrementally when a
//    transaction first structurally modifies a page, held until
//    commit/abort (strict two-phase). Acquisition uses a timeout;
//    expiry aborts the younger request (simple deadlock resolution).
//
// The paper's headline concurrency property is preserved structurally:
// ancestor `size` maintenance travels as commutative deltas applied in
// the commit window, so a transaction never takes page locks on the
// ancestor chain — in particular the root's page is not a bottleneck.
//
// Lock hierarchy (DESIGN.md §6): GlobalLock is the outermost capability;
// PageLockManager::mu_ and TransactionManager::meta_mu_ nest inside it
// and never nest inside each other while also holding further locks.
// Both classes are capability-annotated, so -Wthread-safety proves the
// guarded-field discipline on every Clang build.
#ifndef PXQ_TXN_LOCK_MANAGER_H_
#define PXQ_TXN_LOCK_MANAGER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace pxq::txn {

class PageLockManager {
 public:
  explicit PageLockManager(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(200))
      : timeout_(timeout) {}

  /// Acquire the write lock on `page` for `owner`. Re-entrant for the
  /// same owner. Returns Conflict after the deadlock timeout.
  Status Acquire(TxnId owner, PageId page) PXQ_EXCLUDES(mu_);

  /// Release every page lock held by `owner` (commit/abort).
  void ReleaseAll(TxnId owner) PXQ_EXCLUDES(mu_);

  /// Hand every page lock held by `from` to `to` (which holds none):
  /// the pages never become free in between.
  void Transfer(TxnId from, TxnId to) PXQ_EXCLUDES(mu_);

  /// Pages currently locked by `owner` (tests).
  std::unordered_set<PageId> HeldBy(TxnId owner) const PXQ_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  CondVar cv_;
  std::unordered_map<PageId, TxnId> owner_of_ PXQ_GUARDED_BY(mu_);
  std::unordered_map<TxnId, std::unordered_set<PageId>> held_
      PXQ_GUARDED_BY(mu_);
  const std::chrono::milliseconds timeout_;
};

/// The global lock: shared for readers, exclusive for the commit window.
///
/// Sharded reader registration (the folly::SharedMutex / BRAVO shape):
/// each reader registers in a cache-line-padded slot chosen by hashing
/// its thread, so the shared fast path is one CAS on a private cache
/// line plus one load of the writer-intent word — no shared mutex, no
/// condvar, and readers on different cores never touch the same line.
/// A CAS that loses its slot to a hash collision falls back to a shared
/// overflow counter (counted in `slot_collisions`), so correctness
/// never depends on slot capacity — only the fast path's locality does.
///
/// Writers remain preferred, as the hand-rolled predecessor was (glibc's
/// rwlock is reader-preferring and starves committers): LockExclusive
/// bumps `writer_state_` (the intent word) FIRST, which diverts every
/// new reader to the slow path, then scan-drains the slots. In-flight
/// readers finish and wake the drain; the commit window opens as soon
/// as they do. UnlockShared only notifies when writer intent is set —
/// the no-writer common case is wake-free (previously every last-reader
/// exit broadcast on the condvar).
///
/// Memory ordering: registration-vs-intent is a store-buffer (Dekker)
/// pattern — reader publishes its slot then checks intent, writer
/// publishes intent then scans slots. Release/acquire alone permits
/// both sides to miss each other, so the four critical operations
/// (slot publish, intent check, intent publish, slot scan) are seq_cst:
/// in the single total order S, a reader whose intent check reads zero
/// ordered its slot publish before the writer's intent publish, hence
/// before the writer's scan — the scan observes the registration.
/// The same argument makes an unregistering reader see the intent it
/// must wake (slot release then intent check vs intent publish then
/// scan).
///
/// GlobalLock is itself a thread-safety capability: LockShared /
/// LockExclusive acquire it (shared / exclusive), so an unbalanced
/// commit-window path is a compile error under -Wthread-safety.
class PXQ_CAPABILITY("GlobalLock") GlobalLock {
 public:
  /// Hard cap on reader slots (4 KiB of padded lines).
  static constexpr int32_t kMaxSlots = 64;
  /// LockShared token for a reader registered in the overflow counter.
  static constexpr int32_t kOverflowSlot = -1;

  /// `reader_slots` <= 0 sizes the slot array automatically to
  /// 2×hardware_concurrency; any value is rounded up to a power of two
  /// and clamped to [2, kMaxSlots].
  explicit GlobalLock(int32_t reader_slots = 0) {
    int64_t want =
        reader_slots > 0
            ? reader_slots
            : 2 * static_cast<int64_t>(std::thread::hardware_concurrency());
    if (want < 2) want = 2;
    if (want > kMaxSlots) want = kMaxSlots;
    int32_t n = 1;
    while (n < want) n <<= 1;
    slot_mask_ = n - 1;
  }

  /// Registers this thread as a reader and returns the slot token to
  /// hand back to UnlockShared (kOverflowSlot when the hashed slot
  /// collided). Re-entrant: each acquisition gets its own token.
  int32_t LockShared() PXQ_ACQUIRE_SHARED() {
    reader_acquires_.Inc();
    int32_t slot;
    if (TryEnterShared(&slot)) return slot;
    // Slow path: a writer holds or wants the lock. Park on the condvar
    // until writer_state_ drains to zero, then race to re-register
    // (a new writer may slip in between — loop).
    reader_waits_.Inc();
    const auto t0 = std::chrono::steady_clock::now();
    for (;;) {
      {
        MutexLock l(&mu_);
        while (writer_state_.load(std::memory_order_seq_cst) != 0) {
          reader_cv_.Wait(l);
        }
      }
      if (TryEnterShared(&slot)) break;
    }
    reader_wait_ns_.Record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    return slot;
  }

  void UnlockShared(int32_t slot) PXQ_RELEASE_SHARED() { ExitShared(slot); }

  void LockExclusive() PXQ_ACQUIRE() {
    writer_acquires_.Inc();
    // Intent first: from here on new readers divert to the slow path,
    // so the drain below only waits on readers already in flight.
    writer_state_.fetch_add(1, std::memory_order_seq_cst);
    bool blocked = false;
    std::chrono::steady_clock::time_point t0;
    {
      MutexLock l(&mu_);
      // Serialize writers amongst themselves.
      while (writer_active_) {
        if (!blocked) {
          blocked = true;
          t0 = std::chrono::steady_clock::now();
        }
        writer_cv_.Wait(l);
      }
      writer_active_ = true;
      // Scan-drain the reader slots. The scan runs under mu_, and an
      // unregistering reader that sees our intent takes mu_ (empty
      // section) before notifying — so it either unregistered before
      // the scan or its notify reaches this wait. No lost wakeup.
      while (AnyReaderRegistered()) {
        if (!blocked) {
          blocked = true;
          t0 = std::chrono::steady_clock::now();
        }
        drain_cv_.Wait(l);
      }
    }
    if (blocked) {
      writer_waits_.Inc();
      writer_wait_ns_.Record(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
  }

  void UnlockExclusive() PXQ_RELEASE() {
    int64_t remaining;
    {
      MutexLock l(&mu_);
      writer_active_ = false;
      remaining = writer_state_.fetch_sub(1, std::memory_order_seq_cst) - 1;
    }
    if (remaining > 0) {
      // Writer preference across back-to-back commits: hand the lock to
      // the next writer; slow-path readers keep waiting on the intent.
      writer_cv_.NotifyOne();
    } else {
      reader_cv_.NotifyAll();
    }
  }

  /// Expose acquire/contention metrics through a registry: the wait
  /// histograms (ns per BLOCKED acquire — uncontended acquires are not
  /// recorded; the waits counters give the ratio) by reference, and one
  /// group over the counters. `*_waits` counts acquires that found the
  /// lock unavailable and blocked, `*_acquires` every acquire;
  /// reader_waits stays ~0 unless a writer-intent window is open.
  /// `slot_collisions` counts shared acquires whose hashed slot was
  /// taken (overflow fallback), `drain_notifies` UnlockShared wakeups
  /// sent to a draining writer, and `reader_slots` is the configured
  /// slot count after rounding/clamping.
  void RegisterMetrics(obs::MetricsRegistry* reg) const {
    reg->RegisterHistogram("pxq_lock_reader_wait_ns", &reader_wait_ns_);
    reg->RegisterHistogram("pxq_lock_writer_wait_ns", &writer_wait_ns_);
    reg->RegisterGroup([this](std::vector<std::pair<std::string, int64_t>>* o) {
      // Lock-free counters: read the waits before the acquires so
      // waits <= acquires holds within one snapshot.
      const int64_t reader_waits = reader_waits_.Value();
      const int64_t writer_waits = writer_waits_.Value();
      o->emplace_back("pxq_lock_reader_acquires", reader_acquires_.Value());
      o->emplace_back("pxq_lock_reader_waits", reader_waits);
      o->emplace_back("pxq_lock_writer_acquires", writer_acquires_.Value());
      o->emplace_back("pxq_lock_writer_waits", writer_waits);
      o->emplace_back("pxq_lock_slot_collisions", slot_collisions_.Value());
      o->emplace_back("pxq_lock_drain_notifies", drain_notifies_.Value());
      o->emplace_back("pxq_lock_reader_slots", slot_mask_ + 1);
    });
  }

  /// RAII reader guard for query execution; carries the slot token.
  class PXQ_SCOPED_CAPABILITY ReadGuard {
   public:
    explicit ReadGuard(GlobalLock* lock) PXQ_ACQUIRE_SHARED(lock)
        : lock_(lock), slot_(lock->LockShared()) {}
    ~ReadGuard() PXQ_RELEASE_GENERIC() { lock_->UnlockShared(slot_); }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    GlobalLock* lock_;
    int32_t slot_;
  };

 private:
  struct alignas(64) PaddedSlot {
    std::atomic<int64_t> v{0};
  };

  /// Stable hash of the calling thread into [0, slot_mask_]: the
  /// address of a thread_local is unique per live thread and constant
  /// for its lifetime.
  int32_t PreferredSlot() const {
    static thread_local char tl_slot_anchor;
    uint64_t h = reinterpret_cast<uintptr_t>(&tl_slot_anchor);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<int32_t>(h) & slot_mask_;
  }

  /// Publish this reader's registration, then check writer intent
  /// (seq_cst on both — see the class comment's Dekker argument). On
  /// intent, roll the registration back and report failure so the
  /// caller gates on the writer instead.
  bool TryEnterShared(int32_t* slot) {
    const int32_t s = PreferredSlot();
    int64_t expected = 0;
    if (slots_[static_cast<size_t>(s)].v.compare_exchange_strong(
            expected, 1, std::memory_order_seq_cst)) {
      *slot = s;
    } else {
      // Hash collision with a concurrently registered reader: fall back
      // to the overflow counter (shared cache line, still no mutex).
      slot_collisions_.Inc();
      overflow_.v.fetch_add(1, std::memory_order_seq_cst);
      *slot = kOverflowSlot;
    }
    if (writer_state_.load(std::memory_order_seq_cst) == 0) return true;
    ExitShared(*slot);
    return false;
  }

  void ExitShared(int32_t slot) {
    if (slot == kOverflowSlot) {
      overflow_.v.fetch_sub(1, std::memory_order_seq_cst);
    } else {
      slots_[static_cast<size_t>(slot)].v.store(0, std::memory_order_seq_cst);
    }
    // Wake the drain only under writer intent — the no-writer exit is
    // wake-free (the old design broadcast on every last-reader exit).
    // The empty mu_ section orders this notify against a writer that
    // scanned before our slot release and is about to wait.
    if (writer_state_.load(std::memory_order_seq_cst) != 0) {
      drain_notifies_.Inc();
      { MutexLock l(&mu_); }
      drain_cv_.NotifyAll();
    }
  }

  bool AnyReaderRegistered() const {
    for (int32_t i = 0; i <= slot_mask_; ++i) {
      if (slots_[static_cast<size_t>(i)].v.load(std::memory_order_seq_cst) !=
          0) {
        return true;
      }
    }
    return overflow_.v.load(std::memory_order_seq_cst) != 0;
  }

  // Reader-registration state. Touched ONLY by this class (enforced by
  // ci/lint_concurrency.py's slot-encapsulation rule) and only with
  // explicit memory orders (slot-explicit-order rule).
  std::array<PaddedSlot, kMaxSlots> slots_;
  PaddedSlot overflow_;
  /// Writer intent + activity count: pending and active exclusive
  /// holders. Nonzero gates new readers (writer preference).
  std::atomic<int64_t> writer_state_{0};
  int32_t slot_mask_ = 1;

  // Slow-path parking. mu_ guards only writer_active_; the slot state
  // above is deliberately outside it (the reader fast path never takes
  // a mutex).
  mutable Mutex mu_;
  CondVar reader_cv_;  // slow-path readers wait for writer_state_ == 0
  CondVar writer_cv_;  // queued writers wait for writer_active_ == false
  CondVar drain_cv_;   // the active writer waits for slots to drain
  bool writer_active_ PXQ_GUARDED_BY(mu_) = false;

  obs::Counter reader_acquires_;
  obs::Counter reader_waits_;
  obs::Counter writer_acquires_;
  obs::Counter writer_waits_;
  obs::Counter slot_collisions_;
  obs::Counter drain_notifies_;
  obs::Histogram reader_wait_ns_;
  obs::Histogram writer_wait_ns_;
};

}  // namespace pxq::txn

#endif  // PXQ_TXN_LOCK_MANAGER_H_
