//===- alloc/Allocator.h - Allocator interface -----------------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocator interface every heap in this project implements: the
/// GNU-libc stand-in (BaselineAllocator), the DieHard randomized heap, the
/// DieFast debugging allocator, and the correcting allocator.  Workloads
/// are written against this interface so the Figure 7 harness can swap
/// heaps underneath them.
///
/// The paper interposes on malloc/free in unaltered binaries; here the
/// programs are in-process workloads, so the interposition point is this
/// interface.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_ALLOC_ALLOCATOR_H
#define EXTERMINATOR_ALLOC_ALLOCATOR_H

#include <cstddef>
#include <cstdint>

namespace exterminator {

/// Counters every allocator maintains; invalid/double frees are counted
/// rather than crashing (Table 1: both are tolerated).
struct AllocatorStats {
  uint64_t Allocations = 0;
  uint64_t Deallocations = 0;
  uint64_t InvalidFrees = 0;
  uint64_t DoubleFrees = 0;
  uint64_t BytesRequested = 0;
};

/// Abstract malloc/free interface.
class Allocator {
public:
  virtual ~Allocator();

  /// Returns storage for at least \p Size bytes, or nullptr when the
  /// request cannot be satisfied.
  virtual void *allocate(size_t Size) = 0;

  /// Releases \p Ptr.  Invalid and double frees must be ignored (and
  /// counted), never fatal.
  virtual void deallocate(void *Ptr) = 0;

  /// Human-readable allocator name for reports.
  virtual const char *name() const = 0;

  /// Virtual so wrapper heaps (DieFast, the correcting allocator) can
  /// forward to the heap that actually owns the counters instead of
  /// copying the whole struct on every allocate/deallocate.
  virtual const AllocatorStats &stats() const { return Stats; }

protected:
  AllocatorStats Stats;
};

} // namespace exterminator

#endif // EXTERMINATOR_ALLOC_ALLOCATOR_H
