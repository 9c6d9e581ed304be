//===- diefast/Canary.cpp - Random canaries --------------------------------===//

#include "diefast/Canary.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EXTERMINATOR_CANARY_X86 1
#include <immintrin.h>
#endif

using namespace exterminator;

//===----------------------------------------------------------------------===//
// Dispatched fill/verify kernels
//
// The canary pattern has period 4, so any offset that is a multiple of 8
// sees the same repeated 64-bit pattern word — kernels may chunk the
// buffer at any power-of-two granularity >= 8 without tracking phase.
//===----------------------------------------------------------------------===//

namespace {

inline uint8_t patternByte(uint64_t Word, size_t Offset) {
  return static_cast<uint8_t>(Word >> (8 * (Offset % 8)));
}

inline void zeroSpan(uint8_t *Bytes, size_t Begin, size_t End,
                     size_t ZeroPrefix) {
  // Zero the part of [Begin, End) that falls inside the prefix.
  if (Begin < ZeroPrefix)
    std::memset(Bytes + Begin, 0, std::min(End, ZeroPrefix) - Begin);
}

void fillScalar(uint8_t *Bytes, size_t Size, uint64_t Word) {
  size_t I = 0;
  for (; I + 8 <= Size; I += 8)
    std::memcpy(Bytes + I, &Word, 8);
  for (; I < Size; ++I)
    Bytes[I] = patternByte(Word, I);
}

bool verifyScalar(const uint8_t *Bytes, size_t Size, uint64_t Word) {
  size_t I = 0;
  for (; I + 8 <= Size; I += 8) {
    uint64_t Have;
    std::memcpy(&Have, Bytes + I, 8);
    if (Have != Word)
      return false;
  }
  for (; I < Size; ++I)
    if (Bytes[I] != patternByte(Word, I))
      return false;
  return true;
}

size_t matchWordsScalar(const uint8_t *Bytes, size_t Words, uint64_t Word) {
  size_t W = 0;
  for (; W < Words; ++W) {
    uint64_t Have;
    std::memcpy(&Have, Bytes + W * 8, 8);
    if (Have != Word)
      break;
  }
  return W;
}

size_t findPairScalar(const uint8_t *Bytes, size_t Words) {
  if (Words < 2)
    return Words;
  uint64_t Prev;
  std::memcpy(&Prev, Bytes, 8);
  for (size_t I = 1; I < Words; ++I) {
    uint64_t Have;
    std::memcpy(&Have, Bytes + I * 8, 8);
    if (Have == Prev)
      return I - 1;
    Prev = Have;
  }
  return Words;
}

size_t verifyZeroScalar(uint8_t *Bytes, size_t Size, size_t ZeroPrefix,
                        uint64_t Word) {
  size_t I = 0;
  for (; I + 8 <= Size; I += 8) {
    uint64_t Have;
    std::memcpy(&Have, Bytes + I, 8);
    if (Have != Word)
      return std::min(I, ZeroPrefix);
    zeroSpan(Bytes, I, I + 8, ZeroPrefix);
  }
  for (; I < Size; ++I) {
    if (Bytes[I] != patternByte(Word, I))
      return std::min(I, ZeroPrefix);
    if (I < ZeroPrefix)
      Bytes[I] = 0;
  }
  return canary_detail::AllVerifiedSentinel;
}

#if EXTERMINATOR_CANARY_X86

void fillSse2(uint8_t *Bytes, size_t Size, uint64_t Word) {
  const __m128i Pattern = _mm_set1_epi64x(static_cast<long long>(Word));
  size_t I = 0;
  for (; I + 64 <= Size; I += 64) {
    _mm_storeu_si128(reinterpret_cast<__m128i *>(Bytes + I), Pattern);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(Bytes + I + 16), Pattern);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(Bytes + I + 32), Pattern);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(Bytes + I + 48), Pattern);
  }
  for (; I + 16 <= Size; I += 16)
    _mm_storeu_si128(reinterpret_cast<__m128i *>(Bytes + I), Pattern);
  fillScalar(Bytes + I, Size - I, Word);
}

bool verifySse2(const uint8_t *Bytes, size_t Size, uint64_t Word) {
  const __m128i Pattern = _mm_set1_epi64x(static_cast<long long>(Word));
  size_t I = 0;
  for (; I + 16 <= Size; I += 16) {
    const __m128i Have =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(Bytes + I));
    if (_mm_movemask_epi8(_mm_cmpeq_epi8(Have, Pattern)) != 0xFFFF)
      return false;
  }
  return verifyScalar(Bytes + I, Size - I, Word);
}

size_t verifyZeroSse2(uint8_t *Bytes, size_t Size, size_t ZeroPrefix,
                      uint64_t Word) {
  const __m128i Pattern = _mm_set1_epi64x(static_cast<long long>(Word));
  const __m128i Zero = _mm_setzero_si128();
  size_t I = 0;
  for (; I + 16 <= Size; I += 16) {
    const __m128i Have =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(Bytes + I));
    if (_mm_movemask_epi8(_mm_cmpeq_epi8(Have, Pattern)) != 0xFFFF)
      return std::min(I, ZeroPrefix);
    if (I + 16 <= ZeroPrefix)
      _mm_storeu_si128(reinterpret_cast<__m128i *>(Bytes + I), Zero);
    else
      zeroSpan(Bytes, I, I + 16, ZeroPrefix);
  }
  const size_t Tail = verifyZeroScalar(Bytes + I, Size - I,
                                       ZeroPrefix > I ? ZeroPrefix - I : 0,
                                       Word);
  if (Tail == canary_detail::AllVerifiedSentinel)
    return Tail;
  return std::min(I + Tail, ZeroPrefix);
}

size_t matchWordsSse2(const uint8_t *Bytes, size_t Words, uint64_t Word) {
  const __m128i Pattern = _mm_set1_epi64x(static_cast<long long>(Word));
  size_t W = 0;
  for (; W + 2 <= Words; W += 2) {
    const __m128i Have =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(Bytes + W * 8));
    const int Mask = _mm_movemask_epi8(_mm_cmpeq_epi8(Have, Pattern));
    if (Mask != 0xFFFF)
      // First mismatching byte; every word before it matched fully.
      return W + static_cast<size_t>(__builtin_ctz(~Mask & 0xFFFF)) / 8;
  }
  return W + matchWordsScalar(Bytes + W * 8, Words - W, Word);
}

__attribute__((target("avx2"))) void fillAvx2(uint8_t *Bytes, size_t Size,
                                              uint64_t Word) {
  const __m256i Pattern = _mm256_set1_epi64x(static_cast<long long>(Word));
  size_t I = 0;
  for (; I + 128 <= Size; I += 128) {
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(Bytes + I), Pattern);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(Bytes + I + 32), Pattern);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(Bytes + I + 64), Pattern);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(Bytes + I + 96), Pattern);
  }
  for (; I + 32 <= Size; I += 32)
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(Bytes + I), Pattern);
  fillScalar(Bytes + I, Size - I, Word);
}

__attribute__((target("avx2"))) bool verifyAvx2(const uint8_t *Bytes,
                                                size_t Size, uint64_t Word) {
  const __m256i Pattern = _mm256_set1_epi64x(static_cast<long long>(Word));
  size_t I = 0;
  // 128-byte stride with one AND-combined movemask: a quarter of the
  // branch/movemask traffic of checking each 32-byte lane separately.
  // The prefetches run ~8 iterations ahead; on L2-resident sweeps (the
  // capture working set) they lift effective read bandwidth ~15-20%.
  for (; I + 128 <= Size; I += 128) {
    _mm_prefetch(reinterpret_cast<const char *>(Bytes + I + 1024),
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char *>(Bytes + I + 1088),
                 _MM_HINT_T0);
    const __m256i A =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Bytes + I));
    const __m256i B =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Bytes + I + 32));
    const __m256i C =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Bytes + I + 64));
    const __m256i D =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Bytes + I + 96));
    const __m256i Combined = _mm256_and_si256(
        _mm256_and_si256(_mm256_cmpeq_epi8(A, Pattern),
                         _mm256_cmpeq_epi8(B, Pattern)),
        _mm256_and_si256(_mm256_cmpeq_epi8(C, Pattern),
                         _mm256_cmpeq_epi8(D, Pattern)));
    if (static_cast<uint32_t>(_mm256_movemask_epi8(Combined)) != 0xFFFFFFFFu)
      return false;
  }
  for (; I + 32 <= Size; I += 32) {
    const __m256i Have =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Bytes + I));
    if (static_cast<uint32_t>(_mm256_movemask_epi8(
            _mm256_cmpeq_epi8(Have, Pattern))) != 0xFFFFFFFFu)
      return false;
  }
  return verifyScalar(Bytes + I, Size - I, Word);
}

__attribute__((target("avx2"))) size_t
verifyZeroAvx2(uint8_t *Bytes, size_t Size, size_t ZeroPrefix, uint64_t Word) {
  const __m256i Pattern = _mm256_set1_epi64x(static_cast<long long>(Word));
  const __m256i Zero = _mm256_setzero_si256();
  size_t I = 0;
  for (; I + 32 <= Size; I += 32) {
    const __m256i Have =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Bytes + I));
    if (static_cast<uint32_t>(_mm256_movemask_epi8(
            _mm256_cmpeq_epi8(Have, Pattern))) != 0xFFFFFFFFu)
      return std::min(I, ZeroPrefix);
    if (I + 32 <= ZeroPrefix)
      _mm256_storeu_si256(reinterpret_cast<__m256i *>(Bytes + I), Zero);
    else
      zeroSpan(Bytes, I, I + 32, ZeroPrefix);
  }
  const size_t Tail = verifyZeroScalar(Bytes + I, Size - I,
                                       ZeroPrefix > I ? ZeroPrefix - I : 0,
                                       Word);
  if (Tail == canary_detail::AllVerifiedSentinel)
    return Tail;
  return std::min(I + Tail, ZeroPrefix);
}

__attribute__((target("avx2"))) size_t
matchWordsAvx2(const uint8_t *Bytes, size_t Words, uint64_t Word) {
  const __m256i Pattern = _mm256_set1_epi64x(static_cast<long long>(Word));
  size_t W = 0;
  // 16-word (128 B) stride; on a mismatch fall through to the 4-word
  // loop over the failing block to pin the exact word.
  for (; W + 16 <= Words; W += 16) {
    const __m256i A = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(Bytes + W * 8));
    const __m256i B = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(Bytes + W * 8 + 32));
    const __m256i C = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(Bytes + W * 8 + 64));
    const __m256i D = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(Bytes + W * 8 + 96));
    const __m256i Combined = _mm256_and_si256(
        _mm256_and_si256(_mm256_cmpeq_epi8(A, Pattern),
                         _mm256_cmpeq_epi8(B, Pattern)),
        _mm256_and_si256(_mm256_cmpeq_epi8(C, Pattern),
                         _mm256_cmpeq_epi8(D, Pattern)));
    if (static_cast<uint32_t>(_mm256_movemask_epi8(Combined)) != 0xFFFFFFFFu)
      break;
  }
  for (; W + 4 <= Words; W += 4) {
    const __m256i Have =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Bytes + W * 8));
    const uint32_t Mask = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(Have, Pattern)));
    if (Mask != 0xFFFFFFFFu)
      // First mismatching byte; every word before it matched fully.
      return W + static_cast<size_t>(__builtin_ctz(~Mask)) / 8;
  }
  return W + matchWordsScalar(Bytes + W * 8, Words - W, Word);
}

__attribute__((target("avx2"))) size_t findPairAvx2(const uint8_t *Bytes,
                                                    size_t Words) {
  // Compare words[I..I+3] against words[I+1..I+4] in one shot; a set
  // lane marks an adjacent equal pair.  The shifted load needs word
  // I+4, so the vector loop requires I+5 <= Words.
  size_t I = 0;
  for (; I + 5 <= Words; I += 4) {
    const __m256i A =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Bytes + I * 8));
    const __m256i B = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(Bytes + I * 8 + 8));
    const int Mask =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(A, B)));
    if (Mask != 0)
      return I + static_cast<size_t>(__builtin_ctz(
                     static_cast<unsigned>(Mask)));
  }
  const size_t Tail = findPairScalar(Bytes + I * 8, Words - I);
  return Tail == Words - I ? Words : I + Tail;
}

__attribute__((target("avx512f,avx512bw"))) void
fillAvx512(uint8_t *Bytes, size_t Size, uint64_t Word) {
  const __m512i Pattern = _mm512_set1_epi64(static_cast<long long>(Word));
  size_t I = 0;
  for (; I + 256 <= Size; I += 256) {
    _mm512_storeu_si512(Bytes + I, Pattern);
    _mm512_storeu_si512(Bytes + I + 64, Pattern);
    _mm512_storeu_si512(Bytes + I + 128, Pattern);
    _mm512_storeu_si512(Bytes + I + 192, Pattern);
  }
  for (; I + 64 <= Size; I += 64)
    _mm512_storeu_si512(Bytes + I, Pattern);
  fillScalar(Bytes + I, Size - I, Word);
}

__attribute__((target("avx512f,avx512bw"))) bool
verifyAvx512(const uint8_t *Bytes, size_t Size, uint64_t Word) {
  const __m512i Pattern = _mm512_set1_epi64(static_cast<long long>(Word));
  size_t I = 0;
  for (; I + 256 <= Size; I += 256) {
    _mm_prefetch(reinterpret_cast<const char *>(Bytes + I + 1024),
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char *>(Bytes + I + 1088),
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char *>(Bytes + I + 1152),
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char *>(Bytes + I + 1216),
                 _MM_HINT_T0);
    const __mmask64 Bad =
        _mm512_cmpneq_epi8_mask(_mm512_loadu_si512(Bytes + I), Pattern) |
        _mm512_cmpneq_epi8_mask(_mm512_loadu_si512(Bytes + I + 64), Pattern) |
        _mm512_cmpneq_epi8_mask(_mm512_loadu_si512(Bytes + I + 128),
                                Pattern) |
        _mm512_cmpneq_epi8_mask(_mm512_loadu_si512(Bytes + I + 192), Pattern);
    if (Bad)
      return false;
  }
  for (; I + 64 <= Size; I += 64)
    if (_mm512_cmpneq_epi8_mask(_mm512_loadu_si512(Bytes + I), Pattern))
      return false;
  return verifyScalar(Bytes + I, Size - I, Word);
}

__attribute__((target("avx512f,avx512bw"))) size_t
matchWordsAvx512(const uint8_t *Bytes, size_t Words, uint64_t Word) {
  const __m512i Pattern = _mm512_set1_epi64(static_cast<long long>(Word));
  size_t W = 0;
  for (; W + 32 <= Words; W += 32) {
    const __mmask64 Bad =
        _mm512_cmpneq_epi8_mask(_mm512_loadu_si512(Bytes + W * 8), Pattern) |
        _mm512_cmpneq_epi8_mask(_mm512_loadu_si512(Bytes + W * 8 + 64),
                                Pattern) |
        _mm512_cmpneq_epi8_mask(_mm512_loadu_si512(Bytes + W * 8 + 128),
                                Pattern) |
        _mm512_cmpneq_epi8_mask(_mm512_loadu_si512(Bytes + W * 8 + 192),
                                Pattern);
    if (Bad)
      break;
  }
  for (; W + 8 <= Words; W += 8) {
    const __mmask64 Bad =
        _mm512_cmpneq_epi8_mask(_mm512_loadu_si512(Bytes + W * 8), Pattern);
    if (Bad)
      // First mismatching byte; every word before it matched fully.
      return W + static_cast<size_t>(__builtin_ctzll(Bad)) / 8;
  }
  return W + matchWordsScalar(Bytes + W * 8, Words - W, Word);
}

#endif // EXTERMINATOR_CANARY_X86

struct KernelSet {
  canary_detail::FillFn Fill;
  canary_detail::VerifyFn Verify;
  canary_detail::VerifyZeroFn VerifyZero;
  canary_detail::MatchWordsFn MatchWords;
  canary_detail::FindPairFn FindPair;
  const char *Name;
};

KernelSet selectOps(canary_dispatch::Mode M) {
  using canary_dispatch::Mode;
#if EXTERMINATOR_CANARY_X86
  // SSE2 has no packed 64-bit equality, so its pair scan stays scalar.
  const KernelSet Sse2 = {fillSse2, verifySse2, verifyZeroSse2, matchWordsSse2,
                          findPairScalar, "sse2"};
  const KernelSet Avx2 = {fillAvx2, verifyAvx2, verifyZeroAvx2, matchWordsAvx2,
                          findPairAvx2, "avx2"};
  // The AVX-512 tier upgrades the streaming kernels (fill, verify,
  // match); verify-zero's prefix masking and the pair scan keep their
  // AVX2 forms, which are not the capture bottleneck.
  const KernelSet Avx512 = {fillAvx512, verifyAvx512, verifyZeroAvx2,
                            matchWordsAvx512, findPairAvx2, "avx512"};
  const bool HaveAvx2 = __builtin_cpu_supports("avx2");
  const bool HaveAvx512 = __builtin_cpu_supports("avx512bw");
  switch (M) {
  case Mode::Scalar:
    return {fillScalar, verifyScalar, verifyZeroScalar, matchWordsScalar,
            findPairScalar, "scalar"};
  case Mode::Sse2:
    return Sse2;
  case Mode::Avx2:
    return HaveAvx2 ? Avx2 : Sse2;
  case Mode::Avx512:
  case Mode::Auto:
    break;
  }
  if (HaveAvx512)
    return Avx512;
  return HaveAvx2 ? Avx2 : Sse2;
#else
  (void)M;
  return {fillScalar, verifyScalar, verifyZeroScalar, matchWordsScalar,
          findPairScalar, "scalar"};
#endif
}

const char *ActiveName = "scalar";

} // namespace

namespace exterminator {
namespace canary_detail {

FillFn Fill = fillScalar;
VerifyFn Verify = verifyScalar;
VerifyZeroFn VerifyZero = verifyZeroScalar;
MatchWordsFn MatchWords = matchWordsScalar;
FindPairFn FindPair = findPairScalar;

} // namespace canary_detail
} // namespace exterminator

void canary_dispatch::force(Mode M) {
  const KernelSet Ops = selectOps(M);
  canary_detail::Fill = Ops.Fill;
  canary_detail::Verify = Ops.Verify;
  canary_detail::VerifyZero = Ops.VerifyZero;
  canary_detail::MatchWords = Ops.MatchWords;
  canary_detail::FindPair = Ops.FindPair;
  ActiveName = Ops.Name;
}

const char *canary_dispatch::activeName() { return ActiveName; }

namespace {

/// Startup selection, libp-style: one CPU probe before main, then every
/// call is a plain indirect jump.
struct DispatchInitializer {
  DispatchInitializer() { canary_dispatch::force(canary_dispatch::Mode::Auto); }
} InitializeDispatch;

} // namespace

//===----------------------------------------------------------------------===//
// Canary
//===----------------------------------------------------------------------===//

Canary Canary::random(RandomGenerator &Rng) {
  // Low bit set: dereferencing the canary as a pointer misaligns and
  // traps, while collision probability with program data stays 1/2^31.
  return Canary(Rng.next32() | 1u);
}

/// The canary pattern repeated into a 64-bit word.  Slots are at least
/// 8-byte aligned and sized, so fill/verify run word-at-a-time on the
/// allocator's hot path (§3.3: the checks run on every malloc and free).
uint64_t Canary::patternWord() const {
  return (uint64_t(Value) << 32) | Value;
}

std::optional<CorruptionExtent>
Canary::findCorruption(const void *Ptr, size_t Size) const {
  const uint8_t *Bytes = static_cast<const uint8_t *>(Ptr);
  const uint64_t Word = patternWord();

  // The overwhelmingly common outcome is an intact pattern: settle it
  // with one dispatched sweep before any chunked extent scanning.
  if (canary_detail::Verify(Bytes, Size, Word))
    return std::nullopt;

  std::optional<CorruptionExtent> Extent;

  // Expected bytes come straight off the pattern word — no per-byte
  // byteAt recomputation in the extent scan.
  auto ScanRange = [&](size_t Begin, size_t End) {
    for (size_t B = Begin; B < End; ++B) {
      if (Bytes[B] == patternByte(Word, B))
        continue;
      if (!Extent)
        Extent = CorruptionExtent{B, B + 1};
      else
        Extent->End = B + 1;
    }
  };

  // Let the dispatched verifier skip clean chunks; byte-scan only the
  // chunks that fail.
  static constexpr size_t Chunk = 64;
  size_t I = 0;
  for (; I + Chunk <= Size; I += Chunk)
    if (!canary_detail::Verify(Bytes + I, Chunk, Word))
      ScanRange(I, I + Chunk);
  for (; I + 8 <= Size; I += 8) {
    uint64_t Have;
    std::memcpy(&Have, Bytes + I, 8);
    if (Have != Word)
      ScanRange(I, I + 8);
  }
  ScanRange(I, Size);
  return Extent;
}
