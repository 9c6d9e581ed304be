//===- alloc/ConcurrentAllocator.h - Multithreaded front-end ---*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent allocator front-end (PR 7): per-thread caches over one
/// shared randomized DieHard backend, preserving the paper's
/// probabilistic guarantees per slot while taking the backend lock off
/// both hot paths.
///
/// The shape is the classic production-allocator split, applied to a
/// randomized heap:
///
///  * **Allocation** pops from a per-thread, per-size-class *magazine*
///    of slots pre-drawn through `DieHardHeap::placeRandomly` — the
///    exact uniform-placement path — in batches under the backend lock.
///    Batching changes *when* draws happen, not their distribution:
///    every draw is still uniform over the free slots at draw time, and
///    the DieFast canary check/zero-fill runs per slot at hand-out, just
///    as in the single-threaded heap.
///
///  * **Deallocation** never takes the lock: the pointer resolves
///    through the lock-free page directory, an atomic *pending-free* bit
///    claims the slot (making concurrent double frees detectable without
///    the lock), and one lock-free push queues the slot on its own
///    miniheap's MPSC remote-free queue — the node lives in the dead
///    object's first bytes, so the free path allocates nothing.  Owners
///    drain all queues at the start of every refill/flush, before new
///    slots are drawn, so a freed slot re-enters the uniform lottery at
///    the next draw.
///
///  * **Pointer lookup** is lock-free end to end: the page directory
///    republishes epoch-style on growth (support/PageTable.h), and slab
///    records are fully written before their directory ids publish.
///    The backend's page-sized guard regions keep every page of the
///    directory owned by one slab, so a lookup never needs the lock.
///
/// The pre-PR-7 "just lock it" design (one mutex around the backend)
/// is not a mode of this class: bench/micro_allocators builds it from a
/// DieHardHeap as the comparator for its contended scenarios.
///
/// Object ids come from a front-end atomic clock; the backend clock is
/// re-synchronized to it whenever the lock is taken, so FreeTime stamps
/// and miniheap creation times stay on one timeline.  With MagazineSize
/// == 1 and a single thread, the allocator is bit-identical to driving
/// the backend directly (tests pin this).
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_ALLOC_CONCURRENTALLOCATOR_H
#define EXTERMINATOR_ALLOC_CONCURRENTALLOCATOR_H

#include "alloc/Allocator.h"
#include "alloc/DieHardHeap.h"
#include "diefast/Canary.h"
#include "diefast/ErrorSignal.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace exterminator {

/// Tuning knobs for the concurrent front-end.
struct ConcurrentAllocatorConfig {
  /// The shared randomized backend.
  DieHardConfig Heap;
  /// Slots per thread-cache magazine (per size class).  1 degenerates to
  /// the direct backend, lock per operation; larger values amortize the
  /// lock over more operations.
  size_t MagazineSize = 32;
  /// Apply DieFast semantics (§3.3) to every slot: canary verify/
  /// quarantine and §2.1 zero-fill at hand-out, neighbor sweeps and
  /// probabilistic canary fill at drain.  Off = plain DieHard semantics.
  bool DieFastCanaries = false;
  /// Probability p of canary-filling a freed slot (canary mode only).
  double CanaryFillProbability = 1.0;
};

/// Multithreaded malloc/free over one randomized DieHard backend.
///
/// Thread safety: allocate/deallocate/stats may be called from any
/// thread concurrently.  Destruction and backendForTesting require
/// quiescence (no concurrent operations).  The error handler, when set,
/// may be invoked concurrently from multiple threads.
class ConcurrentAllocator : public Allocator {
public:
  /// One thread's private magazines.  Obtained implicitly per thread via
  /// allocate(), or explicitly via createCache()/allocateFrom() —
  /// the deterministic route tests and single-threaded drivers use.
  class ThreadCache {
    friend class ConcurrentAllocator;

    struct CachedSlot {
      ObjectRef Ref;
      Miniheap *Heap;
    };

    explicit ThreadCache(size_t NumClasses) : Magazines(NumClasses) {}

    /// Pre-drawn slots per size class, consumed back-to-front.
    std::vector<std::vector<CachedSlot>> Magazines;
    /// Front-end counters; atomic because stats() aggregates them while
    /// the owning thread runs.
    std::atomic<uint64_t> Allocations{0};
    std::atomic<uint64_t> BytesRequested{0};
  };

  explicit ConcurrentAllocator(
      const ConcurrentAllocatorConfig &Config = ConcurrentAllocatorConfig(),
      const CallContext *Context = nullptr);
  ~ConcurrentAllocator() override;

  /// Allocates from the calling thread's cache (created on first use and
  /// flushed back automatically at thread exit).
  void *allocate(size_t Size) override;

  /// Lock-free remote free: resolve, claim, push.  Safe from any thread,
  /// including threads that never allocated.
  void deallocate(void *Ptr) override;

  const char *name() const override {
    return Cfg.DieFastCanaries ? "diefast-mt" : "diehard-mt";
  }

  /// Aggregated front-end + backend counters.  Takes both locks; values
  /// are exact under quiescence, a consistent-enough snapshot otherwise.
  const AllocatorStats &stats() const override;

  /// The calling thread's cache for this allocator (created on first
  /// use; registered for flush at thread exit).
  ThreadCache &threadCache();

  /// Creates a cache detached from any thread.  Tests drive several
  /// caches from one thread through allocateFrom to exercise the
  /// magazine machinery deterministically.
  ThreadCache &createCache();

  /// Allocates from an explicit cache.  \p RefOut, when non-null,
  /// receives the slot that was handed out (uniformity tests tally it).
  /// The caller owns the cache's thread affinity: one thread at a time.
  void *allocateFrom(ThreadCache &Cache, size_t Size,
                     ObjectRef *RefOut = nullptr);

  /// Returns every magazine slot of \p Cache to the backend free pool
  /// and drains all remote-free queues.
  void flushCache(ThreadCache &Cache);

  /// Flushes every cache and drains every queue.  Call at quiescence;
  /// afterwards the backend's live count equals the program's live
  /// objects exactly.
  void flushAll();

  /// Installs the handler invoked on each detected corruption (canary
  /// mode).  Must be thread-safe; may fire concurrently.
  void setErrorHandler(ErrorSignalHandler Handler) {
    OnError = std::move(Handler);
  }

  /// Corruptions signalled so far.
  uint64_t errorsSignalled() const {
    return ErrorsSignalled.load(std::memory_order_relaxed);
  }

  /// Allocations performed to date (object ids are drawn from this).
  uint64_t allocationClock() const {
    return Clock.load(std::memory_order_relaxed);
  }

  /// Times the backend lock was acquired, across all threads.  The
  /// bench divides by operations: the magazines' whole point is that
  /// this grows by ~2/MagazineSize per alloc/free pair where a global
  /// lock pays 2 — a machine-independent witness of the decontention
  /// that wall-clock numbers on a small host can understate.
  uint64_t backendLockAcquires() const {
    return LockAcquires.load(std::memory_order_relaxed);
  }

  /// Frees pushed but not yet drained (hint; exact under quiescence).
  uint64_t pendingRemoteFrees() const {
    const int64_t N = PendingRemote.load(std::memory_order_relaxed);
    return N > 0 ? static_cast<uint64_t>(N) : 0;
  }

  /// The shared backend, for tests and heap-image capture.  Quiescence
  /// required; flushAll() first for exact live accounting.
  DieHardHeap &backend() { return Backend; }
  const DieHardHeap &backend() const { return Backend; }

  const ConcurrentAllocatorConfig &config() const { return Cfg; }
  const Canary &canary() const { return HeapCanary; }

private:
  /// Drains every miniheap's remote-free queue into the backend
  /// (BackendLock held).  Returns the number of slots freed.
  uint64_t drainRemoteFrees();

  /// Tops up one magazine under the backend lock: drain first, then
  /// draw, so every queued free is back in the lottery before any draw.
  void refill(ThreadCache &Cache, unsigned ClassIndex);

  /// flushCache body with BackendLock already held.
  void flushCacheLocked(ThreadCache &Cache);

  void signalError(ErrorSignalKind Kind, const ObjectRef &Where);

  /// Takes the backend lock, counts the acquisition, and re-syncs the
  /// backend clock to the front-end clock.
  std::unique_lock<std::mutex> lockBackend();

  ConcurrentAllocatorConfig Cfg;
  const CallContext *Context;
  DieHardHeap Backend;
  /// Canary-mode randomness (drain-time fills); seeded exactly like
  /// DieFastHeap's so MagazineSize == 1 reproduces its placements.
  RandomGenerator CanaryRng;
  Canary HeapCanary;
  ErrorSignalHandler OnError;

  /// Serializes every backend mutation: refills, drains, flushes.
  mutable std::mutex BackendLock;
  /// Guards AllCaches (creation + stats aggregation).  Lock order:
  /// CacheLock before BackendLock; never the reverse.
  mutable std::mutex CacheLock;
  std::vector<std::unique_ptr<ThreadCache>> AllCaches;

  /// Front-end allocation clock; object ids are fetch_add'ed from it
  /// without the lock.
  std::atomic<uint64_t> Clock{0};
  /// Queued-but-undrained frees (drain-skip hint; may transiently read
  /// negative while a drain races a push's counter increment).
  std::atomic<int64_t> PendingRemote{0};
  std::atomic<uint64_t> LockAcquires{0};
  std::atomic<uint64_t> ErrorsSignalled{0};
  /// Lock-free-path free errors (the backend's counters only see frees
  /// that reach it).
  std::atomic<uint64_t> RemoteInvalidFrees{0};
  std::atomic<uint64_t> RemoteDoubleFrees{0};

  /// Identifies this instance across reuse of its address (thread-exit
  /// flushes check it against the live-instance registry).
  uint64_t InstanceId;

  /// Scratch for drainRemoteFrees (lock-held; avoids per-drain
  /// allocation).
  std::vector<size_t> DrainScratch;

  /// Aggregation target for stats().
  mutable AllocatorStats Aggregated;
};

} // namespace exterminator

#endif // EXTERMINATOR_ALLOC_CONCURRENTALLOCATOR_H
