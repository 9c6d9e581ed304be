//===- codec/BlockCodec.cpp - Block compression codecs ----------------------===//

#include "codec/BlockCodec.h"

#include <algorithm>
#include <atomic>
#include <cstring>

using namespace exterminator;

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

namespace {
struct CodecCounters {
  std::atomic<uint64_t> CompressCalls{0};
  std::atomic<uint64_t> CompressInBytes{0};
  std::atomic<uint64_t> CompressOutBytes{0};
  std::atomic<uint64_t> DecompressCalls{0};
  std::atomic<uint64_t> DecompressOutBytes{0};
  std::atomic<uint64_t> IncompressibleBlocks{0};
  std::atomic<uint64_t> RejectedBlocks{0};
};
CodecCounters &counters() {
  static CodecCounters C;
  return C;
}
} // namespace

void codecdetail::noteCompress(uint64_t InBytes, uint64_t OutBytes,
                               bool Stored) {
  CodecCounters &C = counters();
  C.CompressCalls.fetch_add(1, std::memory_order_relaxed);
  C.CompressInBytes.fetch_add(InBytes, std::memory_order_relaxed);
  C.CompressOutBytes.fetch_add(OutBytes, std::memory_order_relaxed);
  if (Stored)
    C.IncompressibleBlocks.fetch_add(1, std::memory_order_relaxed);
}

void codecdetail::noteDecompress(uint64_t OutBytes) {
  CodecCounters &C = counters();
  C.DecompressCalls.fetch_add(1, std::memory_order_relaxed);
  C.DecompressOutBytes.fetch_add(OutBytes, std::memory_order_relaxed);
}

void codecdetail::noteReject() {
  counters().RejectedBlocks.fetch_add(1, std::memory_order_relaxed);
}

CodecStatsSnapshot exterminator::codecStats() {
  const CodecCounters &C = counters();
  CodecStatsSnapshot S;
  S.CompressCalls = C.CompressCalls.load(std::memory_order_relaxed);
  S.CompressInBytes = C.CompressInBytes.load(std::memory_order_relaxed);
  S.CompressOutBytes = C.CompressOutBytes.load(std::memory_order_relaxed);
  S.DecompressCalls = C.DecompressCalls.load(std::memory_order_relaxed);
  S.DecompressOutBytes = C.DecompressOutBytes.load(std::memory_order_relaxed);
  S.IncompressibleBlocks = C.IncompressibleBlocks.load(std::memory_order_relaxed);
  S.RejectedBlocks = C.RejectedBlocks.load(std::memory_order_relaxed);
  return S;
}

//===----------------------------------------------------------------------===//
// LZ block codec
//===----------------------------------------------------------------------===//

namespace {

/// Inputs shorter than this never shrink (token + offset overhead).
constexpr size_t MinCompressInput = 16;
/// Back-reference window: offsets are u16, 0 is invalid.
constexpr size_t MaxOffset = 65535;
/// Hash table of 4-byte sequence positions (greedy, last-writer-wins).
constexpr unsigned HashBits = 13;
constexpr uint32_t NoPosition = ~uint32_t(0);

inline uint32_t load32(const uint8_t *P) {
  uint32_t V;
  std::memcpy(&V, P, sizeof(V));
  return V;
}

inline uint32_t hashSequence(uint32_t Sequence) {
  // Knuth multiplicative hash; the shift keeps the top HashBits.
  return (Sequence * 2654435761u) >> (32 - HashBits);
}

/// Appends a nibble-extension length: each byte adds its value, a byte
/// below 255 terminates.
void emitExtension(std::vector<uint8_t> &Out, size_t Excess) {
  while (Excess >= 255) {
    Out.push_back(255);
    Excess -= 255;
  }
  Out.push_back(static_cast<uint8_t>(Excess));
}

void emitSequence(std::vector<uint8_t> &Out, const uint8_t *Literals,
                  size_t LiteralLen, size_t Offset, size_t MatchLen) {
  const size_t LitNibble = LiteralLen < 15 ? LiteralLen : 15;
  // MatchLen == 0 encodes the terminal literal-only sequence.
  const size_t MatchExcess = MatchLen == 0 ? 0 : MatchLen - 4;
  const size_t MatchNibble = MatchExcess < 15 ? MatchExcess : 15;
  Out.push_back(static_cast<uint8_t>(LitNibble << 4 | MatchNibble));
  if (LitNibble == 15)
    emitExtension(Out, LiteralLen - 15);
  Out.insert(Out.end(), Literals, Literals + LiteralLen);
  if (MatchLen == 0)
    return;
  Out.push_back(static_cast<uint8_t>(Offset & 0xff));
  Out.push_back(static_cast<uint8_t>(Offset >> 8));
  if (MatchNibble == 15)
    emitExtension(Out, MatchExcess - 15);
}

} // namespace

size_t exterminator::lzMaxCompressedSize(size_t RawSize) {
  // All-literal degenerate stream: one token per sequence plus one
  // extension byte per 255 literals, plus slack for the terminal token.
  return RawSize + RawSize / 255 + 16;
}

size_t exterminator::lzCompress(const uint8_t *Data, size_t Size,
                                std::vector<uint8_t> &Out) {
  Out.clear();
  if (Size < MinCompressInput)
    return 0;

  std::vector<uint32_t> Table(size_t(1) << HashBits, NoPosition);
  size_t Anchor = 0;
  size_t Pos = 0;
  // Leave the final 4 bytes unmatched so load32 never reads past the end
  // and the terminal sequence always has literals available.
  const size_t MatchableEnd = Size - 4;

  while (Pos < MatchableEnd) {
    const uint32_t Sequence = load32(Data + Pos);
    uint32_t &Slot = Table[hashSequence(Sequence)];
    const uint32_t Candidate = Slot;
    Slot = static_cast<uint32_t>(Pos);
    if (Candidate == NoPosition || Pos - Candidate > MaxOffset ||
        load32(Data + Candidate) != Sequence) {
      ++Pos;
      continue;
    }
    size_t MatchLen = 4;
    while (Pos + MatchLen < Size &&
           Data[Candidate + MatchLen] == Data[Pos + MatchLen])
      ++MatchLen;
    emitSequence(Out, Data + Anchor, Pos - Anchor, Pos - Candidate, MatchLen);
    Pos += MatchLen;
    Anchor = Pos;
    if (Out.size() >= Size) {
      Out.clear();
      return 0; // Expanding: caller stores raw.
    }
  }

  emitSequence(Out, Data + Anchor, Size - Anchor, 0, 0);
  if (Out.size() >= Size) {
    Out.clear();
    return 0;
  }
  return Out.size();
}

namespace {

/// Reads a nibble extension; false on truncation or a length already
/// past \p Bound (bounds the adversarial 255... stream early).
bool readExtension(const uint8_t *In, size_t InSize, size_t &IP, size_t &Len,
                   size_t Bound) {
  for (;;) {
    if (IP >= InSize)
      return false;
    const uint8_t B = In[IP++];
    Len += B;
    if (Len > Bound)
      return false;
    if (B < 255)
      return true;
  }
}

} // namespace

bool exterminator::lzDecompress(const uint8_t *Comp, size_t CompSize,
                                uint8_t *Out, size_t RawSize) {
  size_t IP = 0;
  size_t OP = 0;
  for (;;) {
    if (IP >= CompSize)
      return false; // Truncated: every stream ends with a terminal token.
    const uint8_t Token = Comp[IP++];
    size_t LiteralLen = Token >> 4;
    if (LiteralLen == 15 &&
        !readExtension(Comp, CompSize, IP, LiteralLen, RawSize))
      return false;
    if (LiteralLen > RawSize - OP || LiteralLen > CompSize - IP)
      return false;
    std::memcpy(Out + OP, Comp + IP, LiteralLen);
    OP += LiteralLen;
    IP += LiteralLen;

    if (IP == CompSize)
      // Terminal sequence: literals only, exact raw size.
      return OP == RawSize && (Token & 0x0f) == 0;

    if (CompSize - IP < 2)
      return false;
    const size_t Offset = size_t(Comp[IP]) | size_t(Comp[IP + 1]) << 8;
    IP += 2;
    if (Offset == 0 || Offset > OP)
      return false; // Back-reference before the start of output.
    size_t MatchLen = (Token & 0x0f) + size_t(4);
    if ((Token & 0x0f) == 15 &&
        !readExtension(Comp, CompSize, IP, MatchLen, RawSize))
      return false;
    if (MatchLen > RawSize - OP)
      return false;
    // Byte-wise: matches may overlap their own output (RLE idiom).
    const uint8_t *Src = Out + OP - Offset;
    for (size_t I = 0; I < MatchLen; ++I)
      Out[OP + I] = Src[I];
    OP += MatchLen;
  }
}

//===----------------------------------------------------------------------===//
// Envelope
//===----------------------------------------------------------------------===//

std::vector<uint8_t> exterminator::encodeCodecBlock(const uint8_t *Data,
                                                    size_t Size) {
  ByteWriter Writer;
  std::vector<uint8_t> Lz;
  const size_t CompSize = lzCompress(Data, Size, Lz);
  const bool Stored = CompSize == 0;
  if (Stored) {
    Writer.writeU8(static_cast<uint8_t>(CodecId::Raw));
    Writer.writeVarU64(Size);
    Writer.writeBytes(Data, Size);
  } else {
    Writer.writeU8(static_cast<uint8_t>(CodecId::Lz));
    Writer.writeVarU64(Size);
    Writer.writeBytes(Lz.data(), CompSize);
  }
  codecdetail::noteCompress(Size, Writer.size(), Stored);
  return Writer.take();
}

std::vector<uint8_t>
exterminator::encodeCodecBlock(const std::vector<uint8_t> &Raw) {
  return encodeCodecBlock(Raw.data(), Raw.size());
}

bool exterminator::decodeCodecBlock(const uint8_t *Data, size_t Size,
                                    std::vector<uint8_t> &RawOut,
                                    uint64_t MaxRawSize) {
  ByteReader Reader(Data, Size);
  const uint8_t Id = Reader.readU8();
  const uint64_t RawSize = Reader.readVarU64();
  // Budget check precedes the resize: a bomb declaring terabytes is
  // rejected for the price of two varint bytes.
  if (Reader.failed() || RawSize > MaxRawSize) {
    codecdetail::noteReject();
    return false;
  }
  const size_t BodySize = Reader.remaining();
  const uint8_t *Body = Data + (Size - BodySize);
  if (Id == static_cast<uint8_t>(CodecId::Raw)) {
    if (BodySize != RawSize) {
      codecdetail::noteReject();
      return false;
    }
    RawOut.assign(Body, Body + BodySize);
  } else if (Id == static_cast<uint8_t>(CodecId::Lz)) {
    RawOut.resize(RawSize);
    if (!lzDecompress(Body, BodySize, RawOut.data(), RawSize)) {
      codecdetail::noteReject();
      return false;
    }
  } else {
    codecdetail::noteReject();
    return false;
  }
  codecdetail::noteDecompress(RawSize);
  return true;
}

bool exterminator::decodeCodecBlock(const std::vector<uint8_t> &Envelope,
                                    std::vector<uint8_t> &RawOut,
                                    uint64_t MaxRawSize) {
  return decodeCodecBlock(Envelope.data(), Envelope.size(), RawOut,
                          MaxRawSize);
}

//===----------------------------------------------------------------------===//
// Stream
//===----------------------------------------------------------------------===//

void exterminator::encodeCodecStream(const uint8_t *Data, size_t Size,
                                     ByteWriter &Out) {
  std::vector<uint8_t> Lz;
  for (size_t Offset = 0; Offset < Size; Offset += CodecStreamBlockCap) {
    const size_t RawLen = std::min(Size - Offset, CodecStreamBlockCap);
    const size_t CompSize = lzCompress(Data + Offset, RawLen, Lz);
    Out.writeVarU64(RawLen);
    Out.writeVarU64(CompSize); // 0: stored, RawLen bytes follow verbatim.
    if (CompSize != 0)
      Out.writeBytes(Lz.data(), CompSize);
    else
      Out.writeBytes(Data + Offset, RawLen);
    codecdetail::noteCompress(RawLen, CompSize != 0 ? CompSize : RawLen,
                              CompSize == 0);
  }
  Out.writeVarU64(0); // Terminator.
}

/// Reads one stream block header and locates its body; false on a
/// truncated or over-cap block.  RawLen 0 is the terminator.
static bool readStreamBlock(ByteReader &In, uint64_t &RawLen,
                            uint64_t &EncLen, const uint8_t *&Body) {
  RawLen = In.readVarU64();
  if (In.failed() || RawLen == 0)
    return !In.failed();
  EncLen = In.readVarU64();
  if (In.failed() || RawLen > CodecStreamBlockCap ||
      EncLen > lzMaxCompressedSize(CodecStreamBlockCap))
    return false;
  Body = In.readSpan(EncLen != 0 ? EncLen : RawLen);
  return !In.failed();
}

bool exterminator::decodeCodecStream(ByteReader &In,
                                     std::vector<uint8_t> &RawOut,
                                     uint64_t MaxRawSize) {
  // Walk the headers on a copy of the reader first, so every declared
  // length — and the running total against the budget — is checked
  // before RawOut is sized from them.
  uint64_t RawLen = 0, EncLen = 0, Total = 0;
  const uint8_t *Body = nullptr;
  ByteReader Walk = In;
  do {
    if (!readStreamBlock(Walk, RawLen, EncLen, Body) ||
        RawLen > MaxRawSize - Total) {
      codecdetail::noteReject();
      return false;
    }
    Total += RawLen;
  } while (RawLen != 0);

  RawOut.resize(Total);
  uint8_t *Out = RawOut.data();
  while (readStreamBlock(In, RawLen, EncLen, Body) && RawLen != 0) {
    if (EncLen == 0) {
      std::memcpy(Out, Body, RawLen);
    } else if (!lzDecompress(Body, EncLen, Out, RawLen)) {
      codecdetail::noteReject();
      return false;
    }
    codecdetail::noteDecompress(RawLen);
    Out += RawLen;
  }
  return true;
}
