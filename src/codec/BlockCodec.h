//===- codec/BlockCodec.h - Block compression codecs -----------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The codec layer every byte path routes through (PR 10): a small
/// LZ77-style block codec plus the envelope framing that makes a
/// compressed blob self-describing and *adversarially budgeted* — the
/// declared expanded size is validated against a caller-supplied bound
/// before any allocation is sized from it, so a compression bomb is a
/// decode error, never an OOM (the same discipline as MaxWireSlots).
///
/// The codec is special-purpose by design (the engel_coding idiom):
/// evidence bytes are dominated by varint-packed metadata and short
/// repeated structures, so a byte-oriented LZ with a 64 KiB window and
/// greedy hash-chain matching captures most of what a general-purpose
/// compressor would, at memcpy-class speed and ~200 lines.
///
/// Wire format of one LZ block (sequences until input exhausts):
///
///   token u8: high nibble = literal count, low nibble = match length-4;
///             nibble 15 ==> extension bytes follow (each adds its value,
///             a byte < 255 terminates)
///   [literal-count extension bytes]
///   literal bytes
///   offset u16 LE (1..65535, back-reference into decoded output)
///   [match-length extension bytes]
///
/// The final sequence carries literals only (match nibble 0, no offset).
/// The decoder knows the exact raw size up front and validates every
/// back-reference, length, and the terminal state; compressors never
/// emit a block that fails to shrink (they return 0 instead and the
/// envelope stores raw bytes).
///
/// Consumers: WireProtocol v4 frame payloads (their own one-byte
/// envelope over lzCompress), StateStore snapshot and journal blobs
/// (encodeCodecBlock), and the bundle file container "XIC1"
/// (encodeCodecStream, ImageBundle.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_CODEC_BLOCKCODEC_H
#define EXTERMINATOR_CODEC_BLOCKCODEC_H

#include "support/Serializer.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace exterminator {

/// Identifies the encoding of an envelope body.
enum class CodecId : uint8_t {
  /// Stored bytes, no transform.
  Raw = 0,
  /// The LZ77 block codec above.
  Lz = 1,
};

/// Worst-case compressed size the LZ encoder may produce for \p RawSize
/// input bytes (incompressible data degenerates to literal runs with one
/// token + extensions per 255-byte stretch).
size_t lzMaxCompressedSize(size_t RawSize);

/// Compresses \p Size bytes into \p Out (replacing its contents).
/// Returns the compressed size, or 0 when the input is incompressible
/// (or too small to bother) — the caller then stores raw bytes.  Never
/// returns a size >= \p Size.
size_t lzCompress(const uint8_t *Data, size_t Size, std::vector<uint8_t> &Out);

/// Decompresses exactly \p RawSize bytes into \p Out (which must hold
/// \p RawSize bytes).  Returns false on any malformation: truncation,
/// a back-reference before the start of output, overlong lengths, or a
/// stream that ends early or late.  \p Out contents are unspecified on
/// failure.
bool lzDecompress(const uint8_t *Comp, size_t CompSize, uint8_t *Out,
                  size_t RawSize);

/// Encodes \p Size bytes as a self-describing envelope:
///
///   u8 CodecId ++ varint RawSize ++ body
///
/// picking Lz when it shrinks the envelope and Raw otherwise.
std::vector<uint8_t> encodeCodecBlock(const uint8_t *Data, size_t Size);
std::vector<uint8_t> encodeCodecBlock(const std::vector<uint8_t> &Raw);

/// Decodes an envelope produced by encodeCodecBlock into \p RawOut.
/// The declared raw size is checked against \p MaxRawSize *before* any
/// allocation — a bomb declaring terabytes is rejected for the price of
/// reading two varint bytes.  Returns false on unknown codec ids,
/// declared-size overruns, truncation, or corrupt LZ streams.
bool decodeCodecBlock(const uint8_t *Data, size_t Size,
                      std::vector<uint8_t> &RawOut, uint64_t MaxRawSize);
bool decodeCodecBlock(const std::vector<uint8_t> &Envelope,
                      std::vector<uint8_t> &RawOut, uint64_t MaxRawSize);

/// Raw bytes per block of a codec stream: large enough to give the LZ
/// window real context, small enough that decode buffers stay modest.
inline constexpr size_t CodecStreamBlockCap = size_t(256) * 1024;

/// Appends \p Size bytes to \p Out as a codec *stream*: the input cut
/// into CodecStreamBlockCap-byte blocks, each compressed on its own,
/// then a terminator:
///
///   varint RawLen      block's decompressed size; 0 terminates the stream
///   varint EncLen      compressed size; 0 ==> RawLen stored bytes follow
///   body               EncLen LZ bytes, or RawLen stored bytes
void encodeCodecStream(const uint8_t *Data, size_t Size, ByteWriter &Out);

/// Decodes one codec stream from \p In, through its terminator, into
/// \p RawOut.  Every block header is validated before any block is
/// decompressed — each RawLen against CodecStreamBlockCap, each EncLen
/// against the LZ bound of a full block, and the running raw total
/// against \p MaxRawSize — so a stream declaring more than the budget
/// costs a header walk, never an allocation.  Returns false on
/// truncation, oversized declared lengths or corrupt LZ bytes.
bool decodeCodecStream(ByteReader &In, std::vector<uint8_t> &RawOut,
                       uint64_t MaxRawSize);

/// Process-wide codec counters (relaxed atomics underneath; this is the
/// snapshot shape).  Scraped as xterm_codec_* via registerCodecMetrics
/// (observe/MetricsRegistry.h).
struct CodecStatsSnapshot {
  uint64_t CompressCalls = 0;
  uint64_t CompressInBytes = 0;
  uint64_t CompressOutBytes = 0;
  uint64_t DecompressCalls = 0;
  uint64_t DecompressOutBytes = 0;
  /// Blocks the encoder stored raw because LZ failed to shrink them.
  uint64_t IncompressibleBlocks = 0;
  /// Decode rejections: bombs, truncation, corrupt back-references.
  uint64_t RejectedBlocks = 0;
};

CodecStatsSnapshot codecStats();

namespace codecdetail {
/// Internal stat hooks shared by the envelope, stream and frame codecs.
void noteCompress(uint64_t InBytes, uint64_t OutBytes, bool Stored);
void noteDecompress(uint64_t OutBytes);
void noteReject();
} // namespace codecdetail

} // namespace exterminator

#endif // EXTERMINATOR_CODEC_BLOCKCODEC_H
