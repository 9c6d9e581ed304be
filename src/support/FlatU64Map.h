//===- support/FlatU64Map.h - Flat 64-bit-key hash table -------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat open-addressing hash table from nonzero 64-bit keys to small
/// values: one contiguous power-of-two array, linear probing, Fibonacci
/// hashing.
///
/// std::unordered_map pays two dependent cache misses per lookup (bucket
/// then node) plus one node allocation per insert; here a lookup is a
/// multiply, a shift, and (almost always) one probe into one cache line.
/// Two indexes live on it:
///
///  * DieHardHeap's page directory (4 KiB page number -> slab id), the
///    one hash probe behind every free's pointer lookup;
///  * HeapImageView's object-id index, behind every §4 isolation query
///    (findById), where building the index over N ids is N stores into
///    one pre-sized array.
///
/// Key 0 is reserved as the empty sentinel.  Object ids are drawn from
/// the allocation clock starting at 1, so id 0 ("never held an object")
/// is exactly the key the id index must not contain anyway, and no slab
/// maps the null page.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_SUPPORT_FLATU64MAP_H
#define EXTERMINATOR_SUPPORT_FLATU64MAP_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace exterminator {

/// Open-addressing map from nonzero uint64_t keys to V.  V must be
/// trivially copyable and cheap to store by value.
template <typename V> class FlatU64Map {
public:
  FlatU64Map() = default;

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// Pre-sizes the table for \p Expected insertions (avoids rehashing
  /// during a bulk build; the table still grows if exceeded).
  void reserve(size_t Expected) {
    size_t Cap = InitialCapacity;
    // Keep the load factor at or below 3/4 after Expected inserts.
    while (Expected * 4 >= Cap * 3)
      Cap *= 2;
    if (Cap > Entries.size())
      rehash(Cap);
  }

  /// Returns a pointer to the value stored for \p Key, or nullptr.
  const V *lookup(uint64_t Key) const {
    if (Key == 0 || Entries.empty())
      return nullptr;
    size_t Index = indexFor(Key);
    for (;;) {
      const Entry &E = Entries[Index];
      if (E.Key == Key)
        return &E.Value;
      if (E.Key == 0)
        return nullptr;
      Index = (Index + 1) & (Entries.size() - 1);
    }
  }

  /// Inserts \p Key -> \p Value if absent; keeps the existing mapping
  /// otherwise (unordered_map::emplace semantics, which is what the
  /// view index wants: the first slot seen for an id wins).  Returns
  /// true when an insert happened.
  bool emplace(uint64_t Key, const V &Value) {
    assert(Key != 0 && "key 0 is the empty sentinel");
    if (Entries.empty())
      rehash(InitialCapacity);
    if ((Count + 1) * 4 >= Entries.size() * 3)
      rehash(Entries.size() * 2);
    size_t Index = indexFor(Key);
    for (;;) {
      Entry &E = Entries[Index];
      if (E.Key == Key)
        return false;
      if (E.Key == 0) {
        E.Key = Key;
        E.Value = Value;
        ++Count;
        return true;
      }
      Index = (Index + 1) & (Entries.size() - 1);
    }
  }

private:
  struct Entry {
    uint64_t Key = 0;
    V Value{};
  };

  static constexpr size_t InitialCapacity = 64; // power of two

  size_t indexFor(uint64_t Key) const {
    // Fibonacci hashing: object ids are consecutive clock values, so a
    // plain mask would pile them into one run of buckets.
    const uint64_t Hash = Key * 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(Hash >> 32) & (Entries.size() - 1);
  }

  void rehash(size_t NewCapacity) {
    std::vector<Entry> Old = std::move(Entries);
    Entries.assign(NewCapacity, Entry{});
    Count = 0;
    for (const Entry &E : Old)
      if (E.Key != 0)
        emplace(E.Key, E.Value);
  }

  std::vector<Entry> Entries;
  size_t Count = 0;
};

} // namespace exterminator

#endif // EXTERMINATOR_SUPPORT_FLATU64MAP_H
