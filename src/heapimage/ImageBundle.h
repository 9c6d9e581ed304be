//===- heapimage/ImageBundle.h - Multi-image wire format -------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The image *bundle* format ("XIB1", format version 2): a set of heap
/// images serialized with one cross-image call-site dictionary, every
/// member image delta-encoded against the first.  Diagnosis evidence
/// always travels as sets — §4 isolation needs multiple images of
/// differently-randomized heaps — and those replicated dumps capture the
/// same program state under different heap layouts: they reference
/// almost exactly the same allocation/deallocation sites, and almost
/// every object's metadata and contents repeat.  So a bundle writes the
/// union site table once, and member slots reference the base image's
/// slot by object id instead of repeating metadata and contents
/// (codec/DeltaCodec.h).  A bundle of N replicated dumps is at most half
/// the size of N independent v2 files (tests pin this), which is what
/// makes image evidence cheap enough to ship to a patch server.
///
/// The per-image bodies extend the v2 columnar/run-length encoding
/// (ImageFormatDetail.h) with the delta codec's reference tags.  Format
/// version 1 (standalone bodies, no delta) is refused.
///
/// A bundle *file* is always the compressed container ("XIC1"): the
/// bundle byte stream passes through the LZ block codec
/// (codec/CodecStream.h), and loadImageBundle reads nothing else.  The
/// stream and buffer decoders read bare "XIB1" bundles only — what a
/// SubmitImages frame carries, whose payload the frame envelope already
/// compresses, so no frame can nest a second LZ stream inside its own.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_HEAPIMAGE_IMAGEBUNDLE_H
#define EXTERMINATOR_HEAPIMAGE_IMAGEBUNDLE_H

#include "heapimage/HeapImage.h"
#include "support/Serializer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace exterminator {

/// The bundle format version every bundle carries (delta-encoded
/// members); decoders reject any other.
inline constexpr uint32_t ImageBundleFormatV2 = 2;

/// "XIC1": the compressed bundle file container (an "XIB1" byte stream
/// passed through the codec layer's block stream).
inline constexpr uint32_t CompressedBundleMagic = 0x58494331;

/// Most images one bundle may carry (far above MaxImages in any config;
/// a forged count fails here instead of looping).
inline constexpr uint64_t MaxBundleImages = 1024;

/// Default decoded-slot budget shared across every image of one bundle
/// (matches the single-image file bound).  Virgin-run records amplify —
/// a dozen wire bytes declare Count slots — so decoders bound what they
/// will materialize, not what they will read.
inline constexpr uint64_t MaxBundleSlots = uint64_t(1) << 24;

/// Default contents-byte budget of one bundle file: room for the run
/// records of MaxBundleSlots virgin slots (384 MiB) plus literal
/// contents far past any real capture.
inline constexpr uint64_t MaxBundleContentsBytes = uint64_t(1) << 30;

/// The tighter budget the patch server applies to bundles arriving over
/// the wire (2M slots ≈ two orders of magnitude above any real evidence
/// set: MaxImages ≤ 8 captures of thousands of slots).  Keeps a forged
/// ~100-byte SubmitImages frame from inflating into gigabytes of
/// columns before rejection.  The wire's contents-byte budget is the
/// frame payload bound (exchange/WireProtocol.h: MaxFramePayload).
inline constexpr uint64_t MaxWireSlots = uint64_t(1) << 21;

/// What a bundle decode may still materialize, charged as it goes and
/// shared across every image of one bundle (the patch server shares one
/// across a submission's primary + fallback pair).
struct BundleBudget {
  /// Slots the bodies may declare.
  uint64_t Slots = MaxBundleSlots;
  /// Bytes the bodies may append to the images' contents tables: every
  /// literal byte plus one run record per contents run.  Both amplify —
  /// a two-byte full reference copies a base slot of up to 1 MiB and
  /// thousands of run records, a two-byte canary-run record appends a
  /// 24-byte run — so the bound is on what is built, not what is read.
  uint64_t ContentsBytes = MaxBundleContentsBytes;
};

/// Streams \p Images as one bundle into \p Sink; returns false on write
/// failure.  An empty set encodes as a valid zero-image bundle.
bool serializeImageBundle(const std::vector<HeapImage> &Images,
                          ByteSink &Sink);

/// Encodes \p Images into a self-describing bundle byte buffer.
std::vector<uint8_t> serializeImageBundle(const std::vector<HeapImage> &Images);

/// Streaming decode of one bare bundle.  Returns false (leaving
/// \p ImagesOut unspecified) on malformed input — truncation, bad
/// magic/version (the "XIC1" container included), oversized counts,
/// slots or contents bytes past \p Budget, or slot records referencing
/// out-of-range dictionary entries.  \p Budget is decremented by what
/// the decode materializes, so one budget can span several bundles.
/// Does not check for trailing bytes — callers owning the stream decide
/// what follows.
bool deserializeImageBundle(ByteSource &Source,
                            std::vector<HeapImage> &ImagesOut,
                            BundleBudget &Budget);
inline bool deserializeImageBundle(ByteSource &Source,
                                   std::vector<HeapImage> &ImagesOut) {
  BundleBudget Budget;
  return deserializeImageBundle(Source, ImagesOut, Budget);
}

/// Buffer decode; additionally rejects trailing garbage.
bool deserializeImageBundle(const std::vector<uint8_t> &Buffer,
                            std::vector<HeapImage> &ImagesOut,
                            BundleBudget &Budget);
inline bool deserializeImageBundle(const std::vector<uint8_t> &Buffer,
                                   std::vector<HeapImage> &ImagesOut) {
  BundleBudget Budget;
  return deserializeImageBundle(Buffer, ImagesOut, Budget);
}

/// Saves \p Images as a bundle file (the "XIC1" container); returns
/// false on I/O failure.
bool saveImageBundle(const std::vector<HeapImage> &Images,
                     const std::string &Path);

/// Loads a bundle file; returns false on I/O or format failure,
/// including a file that is not the "XIC1" container.
bool loadImageBundle(const std::string &Path,
                     std::vector<HeapImage> &ImagesOut);

} // namespace exterminator

#endif // EXTERMINATOR_HEAPIMAGE_IMAGEBUNDLE_H
