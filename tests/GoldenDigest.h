//===- tests/GoldenDigest.h - Golden-digest helpers ------------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FNV-1a-64 digests that pin the behaviour of the allocator hot path,
/// heap-image capture and §4 isolation to committed constants, so the
/// suite holds one implementation to what it did when the constants
/// were recorded.
///
/// An image digest hashes the header (allocation time, canary value,
/// fill probability, multiplier, heap seed), each miniheap's size class,
/// object size, creation time, first slot and slot count, the six
/// metadata columns, the contents runs with each slot's first run, and
/// the literal pool.  It skips each miniheap's BaseAddress: a slab
/// address is where the dumping process happened to map the slab, so it
/// differs between two runs of the same seeded workload while every
/// other field is identical.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_TESTS_GOLDENDIGEST_H
#define EXTERMINATOR_TESTS_GOLDENDIGEST_H

#include "heapimage/HeapImage.h"

#include <cstdint>
#include <cstring>
#include <vector>

namespace exterminator {
namespace testing_support {

/// Streaming FNV-1a-64; integers are fed as little-endian bytes so the
/// digest does not depend on the host's byte order.
class Fnv1a {
public:
  void bytes(const uint8_t *Data, size_t Size) {
    for (size_t I = 0; I < Size; ++I) {
      Hash ^= Data[I];
      Hash *= 0x100000001b3ull;
    }
  }
  void bytes(const std::vector<uint8_t> &Data) {
    bytes(Data.data(), Data.size());
  }
  void u64(uint64_t Value) {
    for (int I = 0; I < 8; ++I) {
      const uint8_t Byte = static_cast<uint8_t>(Value >> (8 * I));
      bytes(&Byte, 1);
    }
  }
  void f64(double Value) {
    uint64_t Bits;
    std::memcpy(&Bits, &Value, 8);
    u64(Bits);
  }
  template <typename T> void column(const std::vector<T> &Values) {
    u64(Values.size());
    for (const T &Value : Values)
      u64(static_cast<uint64_t>(Value));
  }
  uint64_t value() const { return Hash; }

private:
  uint64_t Hash = 0xcbf29ce484222325ull;
};

inline uint64_t fnv1a64(const std::vector<uint8_t> &Bytes) {
  Fnv1a H;
  H.bytes(Bytes);
  return H.value();
}

/// Address-free digest of one image (see the file comment).
inline void digestImage(Fnv1a &H, const HeapImage &Image) {
  H.u64(Image.AllocationTime);
  H.u64(Image.CanaryValue);
  H.f64(Image.CanaryFillProbability);
  H.f64(Image.Multiplier);
  H.u64(Image.HeapSeed);
  H.u64(Image.miniheapCount());
  for (const ImageMiniheapInfo &Mini : Image.miniheaps()) {
    H.u64(Mini.SizeClassIndex);
    H.u64(Mini.ObjectSize);
    H.u64(Mini.CreationTime);
    H.u64(Mini.FirstSlot);
    H.u64(Mini.NumSlots);
  }
  H.column(Image.flagsColumn());
  H.column(Image.objectIdColumn());
  H.column(Image.freeTimeColumn());
  H.column(Image.allocSiteColumn());
  H.column(Image.freeSiteColumn());
  H.column(Image.requestedSizeColumn());
  H.u64(Image.runs().size());
  for (const ContentsRun &Run : Image.runs()) {
    H.u64(Run.Length);
    H.u64(Run.PoolOffset);
    H.u64(Run.Word);
    H.u64(Run.RunKind);
  }
  for (uint64_t G = 0; G < Image.totalSlots(); ++G)
    H.u64(Image.slotFirstRun(G));
  H.u64(Image.pool().size());
  H.bytes(Image.pool());
}

inline uint64_t imageDigest(const HeapImage &Image) {
  Fnv1a H;
  digestImage(H, Image);
  return H.value();
}

inline uint64_t imagesDigest(const std::vector<HeapImage> &Images) {
  Fnv1a H;
  H.u64(Images.size());
  for (const HeapImage &Image : Images)
    digestImage(H, Image);
  return H.value();
}

} // namespace testing_support
} // namespace exterminator

#endif // EXTERMINATOR_TESTS_GOLDENDIGEST_H
