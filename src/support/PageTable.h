//===- support/PageTable.h - Flat page-number hash table -------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat open-addressing hash table from page numbers to 32-bit ids,
/// backing the heap's O(1) pointer lookup (the page directory).
///
/// std::unordered_map costs two dependent cache misses per lookup (bucket
/// then node); on the free path that is the difference between the page
/// directory winning and losing against the sorted-range binary search it
/// replaces.  This table keeps 16-byte entries in one contiguous power-of
/// -two array with linear probing and Fibonacci hashing, so the common
/// lookup is a single probe into one cache line.
///
/// Concurrency (PR 7): lookups are lock-free and may run concurrently
/// with one externally-serialized writer — the shape the concurrent
/// allocator needs, where every remote free resolves its pointer without
/// the backend lock while refills occasionally register new slabs.
///
///  * Entries are published value-then-page: the writer stores Value
///    first, then Page with release.  A reader that acquire-loads a
///    matching Page therefore always reads the entry's final Value.
///    Entries are never deleted or rewritten, so a key means the same
///    thing for as long as the table lives.
///
///  * Growth republishes instead of rehashing in place: a doubled table
///    is filled privately, then swung in with one release store of the
///    current-table pointer (epoch-style).  Retired tables are kept until
///    destruction, so a reader still probing an old epoch's table reads
///    stale-but-valid entries, never freed memory.  Doubling bounds the
///    retired memory at ~1x the final table, the same bound a
///    quiescence-counting scheme would buy at far higher complexity —
///    the single quiescent point (heap destruction) is the reclamation.
///
///  * The safety contract mirrors the allocator's: a reader may consult
///    the directory only for pages whose registration happened-before
///    its lookup (the pointer it resolves was obtained from an
///    allocation after the slab registered, and travelled to the reader
///    through program synchronization).  Probing an older table for such
///    a page still hits: tables only ever gain entries, and every entry
///    present at publish time was copied forward.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_SUPPORT_PAGETABLE_H
#define EXTERMINATOR_SUPPORT_PAGETABLE_H

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace exterminator {

/// Open-addressing page-number -> id map with lock-free lookup.  Page
/// number 0 is reserved as the empty sentinel (heap pages never map page
/// zero).  One writer at a time (external serialization); any number of
/// concurrent readers.
class PageTable {
public:
  static constexpr uint32_t NotFound = ~uint32_t(0);

  PageTable() {
    Tables.push_back(std::make_unique<Table>(InitialCapacity));
    Current.store(Tables.back().get(), std::memory_order_release);
  }

  PageTable(const PageTable &) = delete;
  PageTable &operator=(const PageTable &) = delete;

  size_t size() const { return Count; }

  /// Returns the id stored for \p Page, or NotFound.  Lock-free: safe
  /// concurrently with emplace on another thread, for pages
  /// whose registration happened-before this call (see file comment).
  /// Page 0 (null and near-null addresses) is never stored, so it misses
  /// immediately.
  uint32_t lookup(uintptr_t Page) const {
    if (Page == 0)
      return NotFound;
    const Table &T = *Current.load(std::memory_order_acquire);
    size_t Index = T.indexFor(Page);
    for (;;) {
      const Entry &E = T.Slots[Index];
      const uintptr_t Key = E.Page.load(std::memory_order_acquire);
      if (Key == Page)
        return E.Value.load(std::memory_order_relaxed);
      if (Key == 0)
        return NotFound;
      Index = (Index + 1) & (T.Capacity - 1);
    }
  }

  /// Inserts \p Page -> \p Value if absent.  Returns the stored value
  /// (existing or fresh) plus whether an insert happened.  Writer-side:
  /// callers serialize all emplace calls externally.
  std::pair<uint32_t, bool> emplace(uintptr_t Page, uint32_t Value) {
    assert(Page != 0 && "page 0 is the empty sentinel");
    Table *T = Current.load(std::memory_order_relaxed);
    if ((Count + 1) * 4 >= T->Capacity * 3)
      T = grow();
    size_t Index = T->indexFor(Page);
    for (;;) {
      Entry &E = T->Slots[Index];
      const uintptr_t Key = E.Page.load(std::memory_order_relaxed);
      if (Key == Page)
        return {E.Value.load(std::memory_order_relaxed), false};
      if (Key == 0) {
        // Value first, then the key with release: a reader that sees the
        // key sees the value.
        E.Value.store(Value, std::memory_order_relaxed);
        E.Page.store(Page, std::memory_order_release);
        ++Count;
        return {Value, true};
      }
      Index = (Index + 1) & (T->Capacity - 1);
    }
  }

private:
  struct Entry {
    std::atomic<uintptr_t> Page{0};
    std::atomic<uint32_t> Value{0};
  };

  /// One epoch's table: a power-of-two array of entries.  Immutable in
  /// capacity; entries only ever transition empty -> occupied.
  struct Table {
    explicit Table(size_t Cap)
        : Capacity(Cap), Slots(std::make_unique<Entry[]>(Cap)) {}

    size_t indexFor(uintptr_t Page) const {
      // Fibonacci hashing spreads consecutive page numbers (the common
      // insert pattern) across the table.
      const uint64_t Hash =
          static_cast<uint64_t>(Page) * 0x9E3779B97F4A7C15ull;
      return static_cast<size_t>(Hash >> 32) & (Capacity - 1);
    }

    const size_t Capacity;
    std::unique_ptr<Entry[]> Slots;
  };

  static constexpr size_t InitialCapacity = 1024; // power of two

  /// Builds the doubled table privately, copies every entry forward, then
  /// publishes it with one release store.  The old table is retired, not
  /// freed: readers may still be probing it.
  Table *grow() {
    Table *Old = Current.load(std::memory_order_relaxed);
    auto Fresh = std::make_unique<Table>(Old->Capacity * 2);
    for (size_t I = 0; I < Old->Capacity; ++I) {
      const uintptr_t Page = Old->Slots[I].Page.load(std::memory_order_relaxed);
      if (Page == 0)
        continue;
      const uint32_t Value =
          Old->Slots[I].Value.load(std::memory_order_relaxed);
      size_t Index = Fresh->indexFor(Page);
      while (Fresh->Slots[Index].Page.load(std::memory_order_relaxed) != 0)
        Index = (Index + 1) & (Fresh->Capacity - 1);
      // The fresh table is still private; plain ordering suffices — the
      // publishing release store below covers every write.
      Fresh->Slots[Index].Value.store(Value, std::memory_order_relaxed);
      Fresh->Slots[Index].Page.store(Page, std::memory_order_relaxed);
    }
    Table *Published = Fresh.get();
    Tables.push_back(std::move(Fresh));
    Current.store(Published, std::memory_order_release);
    return Published;
  }

  /// Every epoch's table, oldest first; the last is the current one.
  /// Retired tables stay mapped until destruction (see file comment).
  std::vector<std::unique_ptr<Table>> Tables;
  std::atomic<Table *> Current{nullptr};
  size_t Count = 0;
};

} // namespace exterminator

#endif // EXTERMINATOR_SUPPORT_PAGETABLE_H
