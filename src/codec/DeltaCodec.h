//===- codec/DeltaCodec.h - Base-image delta body codec --------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The RLE-run-aware delta codec for image bundles (format v2): member
/// images encode against the bundle's first image instead of standalone.
///
/// Replicated dumps (§4 isolation input) are captures of the *same
/// program state* under differently-randomized heaps, so almost every
/// object's metadata is identical across images — only its slot
/// position, heap-dependent pointer words, and the per-heap canary value
/// differ.  General-purpose compression cannot see this (the layouts are
/// permuted), but object ids name the same logical object in every
/// image, so a member slot can reference the base image's slot by id:
///
///   0xfe ++ varint ObjectId              full reference: metadata *and*
///                                        contents from the base
///   0xfd ++ varint ObjectId ++ contents  metadata reference: contents
///                                        (run records) follow inline
///
/// Being run-aware buys two canary tricks a byte codec cannot see:
///
///  * Contents runs in delta bodies gain a third kind, CanaryRun: a
///    pattern run whose word is the image's *own* canary fill word
///    carries only its length (freed slots dominate end-of-run dumps,
///    and every one of them repeats the same 8-byte word).
///
///  * Full references compare and reconstruct contents under canary
///    substitution: a base pattern run holding the base's canary word
///    decodes as the member's canary word.  Freed slots therefore
///    full-reference across heaps even though their raw bytes differ.
///
/// Tags 0xfe/0xfd extend the slot-record tag space next to VirginRunTag
/// (0xff); plain records and virgin runs remain available as fallbacks,
/// so a delta body degrades gracefully toward the plain v2 image body
/// when the images do not actually correlate.  The decoder resolves
/// references through a HeapImageView of the already-decoded base and
/// validates every id (present in the base, matching object size) — a
/// corrupt reference is a decode error, never a wild copy.
///
/// Passing a null base writes/reads a body with the CanaryRun encoding
/// but no references — how a v2 bundle encodes its first image.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_CODEC_DELTACODEC_H
#define EXTERMINATOR_CODEC_DELTACODEC_H

#include "heapimage/HeapImage.h"
#include "heapimage/ImageBundle.h"
#include "heapimage/ImageFormatDetail.h"

#include <cstdint>

namespace exterminator {

/// Full base reference: varint ObjectId follows; metadata and contents
/// come from the base image's slot with that id (contents under canary
/// substitution).
inline constexpr uint8_t SlotRefFullTag = 0xfe;
/// Metadata-only base reference: varint ObjectId, then this slot's own
/// contents run records.
inline constexpr uint8_t SlotRefMetaTag = 0xfd;

/// The third contents-run kind of delta bodies: a pattern run of the
/// image's own canary fill word, carrying only a length.
inline constexpr uint8_t CanaryRunKind = 2;

/// Writes \p Image's body delta-encoded against \p Base (null for the
/// bundle's first image: CanaryRun encoding only, no references).  Site
/// references index \p Sites, same as writeImageBody.  Slots whose
/// object id is absent from the base or whose metadata diverges fall
/// back to plain records.
void writeDeltaImageBody(StreamWriter &Writer, const HeapImage &Image,
                         const imagedetail::SiteDictionary &Sites,
                         const HeapImageView *Base);

/// Reads a delta-encoded body, resolving references through \p Base
/// (null rejects reference tags, for the first image).  Returns false
/// on malformed input: unknown ids, object-size mismatches, slots or
/// contents bytes past \p Budget (which is decremented by what the body
/// materializes), or any of the plain-body malformations.
bool readDeltaImageBody(StreamReader &Reader, HeapImage &Image,
                        const std::vector<SiteId> &SiteTable,
                        const HeapImageView *Base, BundleBudget &Budget);

} // namespace exterminator

#endif // EXTERMINATOR_CODEC_DELTACODEC_H
