//===- support/Serializer.h - Binary serialization -------------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Little-endian binary readers/writers: the one field codec every
/// serialized artifact uses — heap images and bundles (§3.4), runtime
/// patch files (§6), run summaries, server state and every wire payload.
/// Each artifact encodes into a ByteWriter buffer and decodes from a
/// ByteReader over the bytes it already holds; files are written whole
/// with writeFileBytes and read whole with readFileBytes.  Readers are
/// fail-soft: out-of-bounds reads set a sticky failure flag and return
/// zeros, so callers can validate once at the end instead of after every
/// field (no exceptions, per the LLVM coding standards).  Both sides
/// share the LEB128 varint encoding the columnar image format leans on.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_SUPPORT_SERIALIZER_H
#define EXTERMINATOR_SUPPORT_SERIALIZER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace exterminator {

/// Appends little-endian fields to a growable byte buffer.
class ByteWriter {
public:
  void writeU8(uint8_t Value) { Buffer.push_back(Value); }
  void writeU32(uint32_t Value);
  void writeU64(uint64_t Value);
  void writeF64(double Value);
  /// Unsigned LEB128: 1 byte per 7 bits, small values stay small.
  void writeVarU64(uint64_t Value);
  void writeBytes(const void *Data, size_t Size);
  /// Length-prefixed byte string.
  void writeBlob(const std::vector<uint8_t> &Blob);

  const std::vector<uint8_t> &buffer() const { return Buffer; }
  size_t size() const { return Buffer.size(); }
  /// Moves the encoded bytes out, leaving the writer empty.
  std::vector<uint8_t> take() { return std::move(Buffer); }

private:
  std::vector<uint8_t> Buffer;
};

/// Reads little-endian fields from a byte buffer with sticky failure.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit ByteReader(const std::vector<uint8_t> &Buffer)
      : Data(Buffer.data()), Size(Buffer.size()) {}

  uint8_t readU8();
  uint32_t readU32();
  uint64_t readU64();
  double readF64();
  uint64_t readVarU64();
  bool readBytes(void *Out, size_t Count);
  /// Consumes \p Count bytes and returns where they start in the buffer
  /// — no copy.  Check failed() afterwards: fewer than \p Count bytes
  /// left fails the reader.
  const uint8_t *readSpan(size_t Count);
  std::vector<uint8_t> readBlob();

  /// True if any read ran past the end of the buffer.
  bool failed() const { return Failed; }
  /// True when the whole buffer has been consumed without failure.
  bool atEnd() const { return !Failed && Offset == Size; }
  size_t remaining() const { return Failed ? 0 : Size - Offset; }

private:
  const uint8_t *Data;
  size_t Size;
  size_t Offset = 0;
  bool Failed = false;
};

/// Writes \p Buffer to \p Path crash-safely: the bytes land in a temp
/// file in the same directory, are fsync'ed, and rename() atomically
/// replaces the target — an interruption or I/O failure mid-write leaves
/// any existing file at \p Path intact.  Returns false on failure
/// (without clobbering the old file).
bool writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Buffer);

/// Reads all of \p Path into \p Buffer; returns false on I/O failure.
bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Buffer);

} // namespace exterminator

#endif // EXTERMINATOR_SUPPORT_SERIALIZER_H
