//===- alloc/ConcurrentAllocator.cpp - Multithreaded front-end -------------===//

#include "alloc/ConcurrentAllocator.h"

#include "alloc/SizeClass.h"
#include "diefast/CanaryOps.h"
#include "support/MpscQueue.h"

#include <cassert>
#include <new>
#include <unordered_map>

using namespace exterminator;

//===----------------------------------------------------------------------===//
// Thread-exit plumbing
//
// Each thread's first allocation against an allocator registers the
// (allocator, cache) pair in a thread_local registry whose destructor
// flushes the cache back — but only if the allocator is still alive,
// which a global registry of live instances (keyed by address *and*
// instance id, so a recycled address cannot impersonate a dead
// allocator) decides under its own lock.  Lock order here is
// LiveRegistry -> BackendLock; the allocator destructor takes the
// registry lock alone (to deregister) and the backend lock alone (to
// flush), never nested, so no cycle exists.
//===----------------------------------------------------------------------===//

namespace {

std::mutex &liveRegistryLock() {
  // Leaked on purpose: main-thread TLS destructors run during exit and
  // must still be able to lock this.
  static std::mutex *M = new std::mutex;
  return *M;
}

std::unordered_map<void *, uint64_t> &liveRegistry() {
  static auto *Map = new std::unordered_map<void *, uint64_t>;
  return *Map;
}

std::atomic<uint64_t> NextInstanceId{1};

struct TlsEntry {
  ConcurrentAllocator *Owner;
  uint64_t Instance;
  ConcurrentAllocator::ThreadCache *Cache;
};

struct TlsRegistry {
  std::vector<TlsEntry> Entries;

  ~TlsRegistry() {
    for (const TlsEntry &E : Entries) {
      std::lock_guard<std::mutex> Lock(liveRegistryLock());
      auto It = liveRegistry().find(E.Owner);
      if (It == liveRegistry().end() || It->second != E.Instance)
        continue; // The allocator died first; it flushed everything.
      E.Owner->flushCache(*E.Cache);
    }
  }
};

thread_local TlsRegistry Tls;

} // namespace

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

ConcurrentAllocator::ConcurrentAllocator(const ConcurrentAllocatorConfig &Config,
                                         const CallContext *Context)
    : Cfg(Config), Context(Context), Backend(Config.Heap, Context),
      // Same derived seed as DieFastHeap: the canary stream must be
      // independent of placement, and matching the constant keeps
      // MagazineSize == 1 runs bit-identical to DieFastHeap.
      CanaryRng(Config.Heap.Seed ^ 0xca11a7c0ffee1234ULL),
      HeapCanary(Canary::random(CanaryRng)),
      InstanceId(NextInstanceId.fetch_add(1, std::memory_order_relaxed)) {
  assert(Cfg.MagazineSize >= 1 && "magazines hold at least one slot");
  std::lock_guard<std::mutex> Lock(liveRegistryLock());
  liveRegistry()[this] = InstanceId;
}

ConcurrentAllocator::~ConcurrentAllocator() {
  {
    // Deregister first: threads exiting from here on skip their flush.
    std::lock_guard<std::mutex> Lock(liveRegistryLock());
    liveRegistry().erase(this);
  }
  flushAll();
}

//===----------------------------------------------------------------------===//
// Caches
//===----------------------------------------------------------------------===//

ConcurrentAllocator::ThreadCache &ConcurrentAllocator::createCache() {
  std::lock_guard<std::mutex> Lock(CacheLock);
  AllCaches.emplace_back(new ThreadCache(sizeclass::numClasses()));
  return *AllCaches.back();
}

ConcurrentAllocator::ThreadCache &ConcurrentAllocator::threadCache() {
  for (const TlsEntry &E : Tls.Entries)
    if (E.Owner == this && E.Instance == InstanceId)
      return *E.Cache;
  ThreadCache &Fresh = createCache();
  Tls.Entries.push_back(TlsEntry{this, InstanceId, &Fresh});
  return Fresh;
}

std::unique_lock<std::mutex> ConcurrentAllocator::lockBackend() {
  std::unique_lock<std::mutex> Lock(BackendLock);
  LockAcquires.fetch_add(1, std::memory_order_relaxed);
  Backend.advanceClockTo(Clock.load(std::memory_order_relaxed));
  return Lock;
}

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

void *ConcurrentAllocator::allocate(size_t Size) {
  return allocateFrom(threadCache(), Size);
}

void *ConcurrentAllocator::allocateFrom(ThreadCache &Cache, size_t Size,
                                        ObjectRef *RefOut) {
  if (!sizeclass::fits(Size))
    return nullptr;

  const unsigned ClassIndex = sizeclass::classFor(Size);
  auto &Magazine = Cache.Magazines[ClassIndex];
  for (;;) {
    if (Magazine.empty())
      refill(Cache, ClassIndex);
    const ThreadCache::CachedSlot Slot = Magazine.back();
    Magazine.pop_back();
    Miniheap &Mini = *Slot.Heap;
    SlotMetadata &Meta = Mini.slot(Slot.Ref.SlotIndex);
    uint8_t *Ptr = Mini.slotPointer(Slot.Ref.SlotIndex);

    // DieFast §3.3 at hand-out: the check runs on the exact slot being
    // returned, lock-free — the slot is reserved, so this thread owns
    // its bytes and metadata exclusively.
    if (Cfg.DieFastCanaries &&
        !canary_ops::prepareReusedSlot(HeapCanary, Meta, Ptr,
                                       Mini.objectSize(), Size)) {
      // Bad-object isolation without the backend lock: the slot stays
      // reserved forever (it is simply never handed out or released), so
      // no bitmap or class counter needs touching.  Its pending-free bit
      // is still set from the free that canaried it, keeping stale frees
      // off the quarantined contents.
      Meta.Bad = true;
      signalError(ErrorSignalKind::CanaryCorruptOnAlloc, Slot.Ref);
      continue;
    }

    // Commit, stamped from the front-end clock.  Mirrors
    // DieHardHeap::commitAllocation, written directly because the
    // backend clock is only re-synced under the lock.
    const uint64_t Id = Clock.fetch_add(1, std::memory_order_relaxed) + 1;
    Meta.ObjectId = Id;
    Meta.FreeTime = 0;
    Meta.AllocSite = Context ? Context->currentSite() : 0;
    Meta.FreeSite = 0;
    Meta.RequestedSize = static_cast<uint32_t>(Size);
    Meta.FrontPad = 0;
    Meta.BackPad = 0;
    Meta.Canaried = false;
    // The slot is live again: re-arm its pending-free bit so the next
    // free can claim it.  Sequenced before the pointer escapes to the
    // program, so any thread that can free it observes the clear.
    Mini.clearPendingFree(Slot.Ref.SlotIndex);

    Cache.Allocations.fetch_add(1, std::memory_order_relaxed);
    Cache.BytesRequested.fetch_add(Size, std::memory_order_relaxed);
    if (RefOut)
      *RefOut = Slot.Ref;
    return Ptr;
  }
}

void ConcurrentAllocator::refill(ThreadCache &Cache, unsigned ClassIndex) {
  auto Lock = lockBackend();
  // Drain before drawing: every free queued up to this point re-enters
  // the uniform lottery before any new slot is picked.  (This ordering
  // is also what makes MagazineSize == 1 bit-identical to the direct
  // backend.)
  if (PendingRemote.load(std::memory_order_acquire) > 0)
    drainRemoteFrees();
  auto &Magazine = Cache.Magazines[ClassIndex];
  while (Magazine.size() < Cfg.MagazineSize) {
    Miniheap *Mini = nullptr;
    const ObjectRef Ref = Backend.reserveSlot(ClassIndex, &Mini);
    Magazine.push_back(ThreadCache::CachedSlot{Ref, Mini});
  }
}

//===----------------------------------------------------------------------===//
// Deallocation
//===----------------------------------------------------------------------===//

void ConcurrentAllocator::deallocate(void *Ptr) {
  if (!Ptr)
    return;

  // Lock-free: resolve through the page directory, claim, push.
  const auto Resolved = Backend.resolvePointer(Ptr);
  if (!Resolved || static_cast<uint8_t *>(Ptr) != Resolved->SlotStart) {
    // Outside the heap or mid-object: invalid free, counted and ignored
    // (Table 1).
    RemoteInvalidFrees.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Miniheap &Mini = *Resolved->Heap;
  const size_t Slot = Resolved->Ref.SlotIndex;
  if (!Mini.claimPendingFree(Slot)) {
    // The slot is already on its way to (or through) the free pool: a
    // double free, detected without the lock and without touching the
    // slot's memory.
    RemoteDoubleFrees.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // This claim owns the slot until the owner drains it.  Stamp the free
  // site now — it belongs to this thread's context — and hand the slot
  // over as a queue node built in the dead object's first bytes (slots
  // are >= MinObjectSize == 8 >= sizeof(MpscNode)).  FreeTime is stamped
  // at drain, from the re-synced clock.
  Mini.slot(Slot).FreeSite = Context ? Context->currentSite() : 0;
  static_assert(sizeof(MpscNode) <= sizeclass::MinObjectSize,
                "remote-free nodes must fit the smallest slot");
  auto *Node = new (Ptr) MpscNode;
  Mini.remoteFreeQueue().push(Node);
  PendingRemote.fetch_add(1, std::memory_order_release);
}

uint64_t ConcurrentAllocator::drainRemoteFrees() {
  uint64_t Drained = 0;
  Backend.forEachMiniheap([&](unsigned C, unsigned H, Miniheap &Mini) {
    MpscNode *Node = Mini.remoteFreeQueue().drainAll();
    if (!Node)
      return;
    // Collect every slot index before processing any: the nodes live in
    // the freed objects themselves, and a canary fill of one slot must
    // not clobber a link we have yet to follow.
    DrainScratch.clear();
    for (; Node; Node = Node->Next) {
      std::optional<size_t> Slot = Mini.slotContaining(Node);
      assert(Slot && "queued node must lie in its own miniheap");
      DrainScratch.push_back(*Slot);
    }
    for (const size_t Slot : DrainScratch) {
      const ObjectRef Ref{C, H, Slot};
      // The free site was stamped by the freeing thread; deallocateIn
      // would otherwise sample the draining thread's context.
      const SiteId Site = Mini.slot(Slot).FreeSite;
      [[maybe_unused]] const bool Freed = Backend.deallocateResolved(Ref, Site);
      assert(Freed && "pending-free claim is exclusive; drain cannot "
                      "double-free");
      if (Cfg.DieFastCanaries) {
        canary_ops::sweepFreedNeighbors(
            Mini, HeapCanary, Ref, [&](const ObjectRef &Corrupt) {
              Backend.quarantine(Corrupt);
              signalError(ErrorSignalKind::CanaryCorruptOnFree, Corrupt);
            });
        canary_ops::canaryFillFreedSlot(Mini, HeapCanary, CanaryRng,
                                        Cfg.CanaryFillProbability, Slot);
      }
      ++Drained;
    }
  });
  if (Drained)
    PendingRemote.fetch_sub(static_cast<int64_t>(Drained),
                            std::memory_order_relaxed);
  return Drained;
}

//===----------------------------------------------------------------------===//
// Flush, stats, errors
//===----------------------------------------------------------------------===//

void ConcurrentAllocator::flushCacheLocked(ThreadCache &Cache) {
  for (auto &Magazine : Cache.Magazines) {
    for (const ThreadCache::CachedSlot &Slot : Magazine)
      Backend.releaseReserved(Slot.Ref);
    Magazine.clear();
  }
}

void ConcurrentAllocator::flushCache(ThreadCache &Cache) {
  auto Lock = lockBackend();
  drainRemoteFrees();
  flushCacheLocked(Cache);
}

void ConcurrentAllocator::flushAll() {
  std::lock_guard<std::mutex> Caches(CacheLock);
  auto Lock = lockBackend();
  drainRemoteFrees();
  for (auto &Cache : AllCaches)
    flushCacheLocked(*Cache);
}

const AllocatorStats &ConcurrentAllocator::stats() const {
  std::lock_guard<std::mutex> Caches(CacheLock);
  std::lock_guard<std::mutex> Lock(BackendLock);
  AllocatorStats S = Backend.stats();
  S.InvalidFrees += RemoteInvalidFrees.load(std::memory_order_relaxed);
  S.DoubleFrees += RemoteDoubleFrees.load(std::memory_order_relaxed);
  for (const auto &Cache : AllCaches) {
    S.Allocations += Cache->Allocations.load(std::memory_order_relaxed);
    S.BytesRequested += Cache->BytesRequested.load(std::memory_order_relaxed);
  }
  Aggregated = S;
  return Aggregated;
}

void ConcurrentAllocator::signalError(ErrorSignalKind Kind,
                                      const ObjectRef &Where) {
  ErrorsSignalled.fetch_add(1, std::memory_order_relaxed);
  if (OnError)
    OnError(ErrorSignal{Kind, Where,
                        Clock.load(std::memory_order_relaxed)});
}
