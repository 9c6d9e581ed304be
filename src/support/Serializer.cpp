//===- support/Serializer.cpp - Binary serialization ----------------------===//

#include "support/Serializer.h"

#include <cstdio>
#include <cstring>

#include <unistd.h>

using namespace exterminator;

void ByteWriter::writeU32(uint32_t Value) {
  for (int I = 0; I < 4; ++I)
    Buffer.push_back(static_cast<uint8_t>(Value >> (8 * I)));
}

void ByteWriter::writeU64(uint64_t Value) {
  for (int I = 0; I < 8; ++I)
    Buffer.push_back(static_cast<uint8_t>(Value >> (8 * I)));
}

void ByteWriter::writeF64(double Value) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(Value));
  std::memcpy(&Bits, &Value, sizeof(Bits));
  writeU64(Bits);
}

void ByteWriter::writeVarU64(uint64_t Value) {
  do {
    uint8_t Byte = Value & 0x7f;
    Value >>= 7;
    if (Value)
      Byte |= 0x80;
    Buffer.push_back(Byte);
  } while (Value);
}

void ByteWriter::writeBytes(const void *Data, size_t Size) {
  const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
  Buffer.insert(Buffer.end(), Bytes, Bytes + Size);
}

void ByteWriter::writeBlob(const std::vector<uint8_t> &Blob) {
  writeU64(Blob.size());
  writeBytes(Blob.data(), Blob.size());
}

uint8_t ByteReader::readU8() {
  uint8_t Value = 0;
  readBytes(&Value, 1);
  return Value;
}

uint32_t ByteReader::readU32() {
  uint8_t Raw[4] = {};
  readBytes(Raw, 4);
  uint32_t Value = 0;
  for (int I = 3; I >= 0; --I)
    Value = (Value << 8) | Raw[I];
  return Value;
}

uint64_t ByteReader::readU64() {
  uint8_t Raw[8] = {};
  readBytes(Raw, 8);
  uint64_t Value = 0;
  for (int I = 7; I >= 0; --I)
    Value = (Value << 8) | Raw[I];
  return Value;
}

double ByteReader::readF64() {
  uint64_t Bits = readU64();
  double Value;
  std::memcpy(&Value, &Bits, sizeof(Value));
  return Value;
}

/// Rejects an overlong encoding: more than 10 bytes, or a tenth byte
/// carrying bits past bit 63 — silently shifting those out would decode
/// a corrupt field to a wrong value instead of failing.
uint64_t ByteReader::readVarU64() {
  uint64_t Value = 0;
  for (unsigned Shift = 0; Shift < 64; Shift += 7) {
    const uint8_t Byte = readU8();
    if (Failed)
      return 0;
    if (Shift == 63 && (Byte & 0x7f) > 1)
      break;
    Value |= uint64_t(Byte & 0x7f) << Shift;
    if (!(Byte & 0x80))
      return Value;
  }
  Failed = true;
  return 0;
}

const uint8_t *ByteReader::readSpan(size_t Count) {
  if (Failed || Count > Size - Offset) {
    Failed = true;
    return nullptr;
  }
  const uint8_t *Span = Data + Offset;
  Offset += Count;
  return Span;
}

bool ByteReader::readBytes(void *Out, size_t Count) {
  const uint8_t *Span = readSpan(Count);
  // A zero-byte read may see a null buffer, and memcpy/memset with a
  // null pointer are undefined even for zero bytes.
  if (Count == 0)
    return !Failed;
  if (Failed) {
    std::memset(Out, 0, Count);
    return false;
  }
  std::memcpy(Out, Span, Count);
  return true;
}

std::vector<uint8_t> ByteReader::readBlob() {
  const uint64_t Count = readU64();
  const uint8_t *Span = readSpan(Count);
  if (Failed)
    return {};
  return std::vector<uint8_t>(Span, Span + Count);
}

bool exterminator::writeFileBytes(const std::string &Path,
                                  const std::vector<uint8_t> &Buffer) {
  // Never truncate the target in place: a crash or full disk mid-write
  // must leave any existing file (a patch file, a server snapshot)
  // untouched.  Write a sibling temp file, fsync it, then rename() over
  // the target — the replacement is all-or-nothing.
  const std::string Temp = Path + ".tmp";
  std::FILE *File = std::fopen(Temp.c_str(), "wb");
  if (!File)
    return false;
  size_t Written =
      Buffer.empty() ? 0 : std::fwrite(Buffer.data(), 1, Buffer.size(), File);
  bool Ok = Written == Buffer.size();
  Ok = Ok && std::fflush(File) == 0 && ::fsync(::fileno(File)) == 0;
  Ok &= std::fclose(File) == 0;
  Ok = Ok && std::rename(Temp.c_str(), Path.c_str()) == 0;
  if (!Ok) {
    std::remove(Temp.c_str());
    return false;
  }
  return true;
}

bool exterminator::readFileBytes(const std::string &Path,
                                 std::vector<uint8_t> &Buffer) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false;
  Buffer.clear();
  uint8_t Chunk[4096];
  size_t Count;
  while ((Count = std::fread(Chunk, 1, sizeof(Chunk), File)) > 0)
    Buffer.insert(Buffer.end(), Chunk, Chunk + Count);
  bool Ok = std::feof(File) && !std::ferror(File);
  std::fclose(File);
  return Ok;
}
