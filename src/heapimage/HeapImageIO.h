//===- heapimage/HeapImageIO.h - Heap image (de)serialization --*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary serialization of heap images (§3.4).  Iterative mode stores an
/// image per run on disk and post-processes them; this module is that disk
/// format.
///
/// The format ("XHI2", version 2) is columnar: an explicit version
/// header, varint-packed metadata (virgin slots collapse to region runs),
/// and run-length-encoded contents.  An image encodes into one buffer,
/// and a save hands it to writeFileBytes, so a failed save leaves the
/// file it would replace intact.  Readers refuse any other magic or
/// version, the array-of-structs "XHI1" layout included.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_HEAPIMAGE_HEAPIMAGEIO_H
#define EXTERMINATOR_HEAPIMAGE_HEAPIMAGEIO_H

#include "heapimage/HeapImage.h"
#include "support/Serializer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace exterminator {

/// The image format version written after the magic (and the only one
/// read).
inline constexpr uint32_t HeapImageFormatV2 = 2;

/// Encodes \p Image into a self-describing v2 byte buffer.
std::vector<uint8_t> serializeHeapImage(const HeapImage &Image);

/// Appends \p Image in v2 format to \p Writer.
void serializeHeapImage(const HeapImage &Image, ByteWriter &Writer);

/// Decodes a v2 image; returns false (leaving \p ImageOut unspecified)
/// on a malformed buffer, trailing bytes or any other format.
bool deserializeHeapImage(const std::vector<uint8_t> &Buffer,
                          HeapImage &ImageOut);

/// Decodes one v2 image from \p Reader.  Does not check for trailing
/// bytes — callers owning the buffer decide what follows.
bool deserializeHeapImage(ByteReader &Reader, HeapImage &ImageOut);

/// Saves \p Image (v2) to \p Path through writeFileBytes: a failed save
/// returns false and leaves any existing file at \p Path intact.
bool saveHeapImage(const HeapImage &Image, const std::string &Path);

/// Loads a v2 image from \p Path; returns false on I/O or format failure
/// (including trailing garbage).
bool loadHeapImage(const std::string &Path, HeapImage &ImageOut);

} // namespace exterminator

#endif // EXTERMINATOR_HEAPIMAGE_HEAPIMAGEIO_H
