//===- support/Serializer.cpp - Binary serialization ----------------------===//

#include "support/Serializer.h"

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

/// Shared LEB128 encoder: returns the number of bytes written to \p Out
/// (at most 10).
static size_t encodeVarU64(uint64_t Value, uint8_t Out[10]) {
  size_t Count = 0;
  do {
    uint8_t Byte = Value & 0x7f;
    Value >>= 7;
    if (Value)
      Byte |= 0x80;
    Out[Count++] = Byte;
  } while (Value);
  return Count;
}

/// Shared LEB128 decoder.  \p ReadByte returns the next byte or -1 on
/// stream failure; \p Malformed is set on an overlong encoding: more
/// than 10 bytes, or a tenth byte carrying bits past bit 63 — silently
/// shifting those out would decode a corrupt field to a wrong value
/// instead of failing.
template <typename ReadByteFn>
static uint64_t decodeVarU64(ReadByteFn &&ReadByte, bool &Malformed) {
  uint64_t Value = 0;
  for (unsigned Shift = 0; Shift < 64; Shift += 7) {
    const int Byte = ReadByte();
    if (Byte < 0)
      return 0;
    if (Shift == 63 && (Byte & 0x7f) > 1) {
      Malformed = true;
      return 0;
    }
    Value |= uint64_t(Byte & 0x7f) << Shift;
    if (!(Byte & 0x80))
      return Value;
  }
  Malformed = true;
  return 0;
}

void ByteWriter::writeVarU64(uint64_t Value) {
  uint8_t Encoded[10];
  writeBytes(Encoded, encodeVarU64(Value, Encoded));
}

void ByteWriter::writeBytes(const void *Data, size_t Size) {
  const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
  Buffer.insert(Buffer.end(), Bytes, Bytes + Size);
}

void ByteWriter::writeBlob(const std::vector<uint8_t> &Blob) {
  writeU64(Blob.size());
  writeBytes(Blob.data(), Blob.size());
}

void ByteWriter::writeString(const std::string &Str) {
  writeU64(Str.size());
  writeBytes(Str.data(), Str.size());
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

uint64_t ByteReader::readVarU64() {
  bool Malformed = false;
  const uint64_t Value = decodeVarU64(
      [&]() -> int {
        const uint8_t Byte = readU8();
        return Failed ? -1 : Byte;
      },
      Malformed);
  if (Malformed)
    Failed = true;
  return Value;
}

bool ByteReader::readBytes(void *Out, size_t Count) {
  if (Failed || Count > Size - Offset) {
    Failed = true;
    std::memset(Out, 0, Count);
    return false;
  }
  std::memcpy(Out, Data + Offset, Count);
  Offset += Count;
  return true;
}

std::vector<uint8_t> ByteReader::readBlob() {
  uint64_t Count = readU64();
  if (Failed || Count > Size - Offset) {
    Failed = true;
    return {};
  }
  std::vector<uint8_t> Blob(Data + Offset, Data + Offset + Count);
  Offset += Count;
  return Blob;
}

std::string ByteReader::readString() {
  uint64_t Count = readU64();
  if (Failed || Count > Size - Offset) {
    Failed = true;
    return {};
  }
  std::string Str(reinterpret_cast<const char *>(Data + Offset), Count);
  Offset += Count;
  return Str;
}

//===----------------------------------------------------------------------===//
// Streaming layer
//===----------------------------------------------------------------------===//

ByteSink::~ByteSink() = default;
ByteSource::~ByteSource() = default;

bool VectorSink::write(const void *Data, size_t Size) {
  const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
  Out.insert(Out.end(), Bytes, Bytes + Size);
  return true;
}

FileSink::FileSink(const std::string &Path)
    : File(std::fopen(Path.c_str(), "wb")) {}

FileSink::~FileSink() { close(); }

bool FileSink::write(const void *Data, size_t Size) {
  if (!File)
    return false;
  if (std::fwrite(Data, 1, Size, File) != Size) {
    WriteFailed = true;
    return false;
  }
  return true;
}

bool FileSink::close() {
  if (!File)
    return !WriteFailed;
  const bool Ok = std::fclose(File) == 0 && !WriteFailed;
  File = nullptr;
  WriteFailed = !Ok;
  return Ok;
}

size_t MemorySource::read(void *Out, size_t Count) {
  const size_t Take = Count < Size - Offset ? Count : Size - Offset;
  // An empty buffer has a null Data, and memcpy from null is undefined
  // even for zero bytes.
  if (Take == 0)
    return 0;
  std::memcpy(Out, Data + Offset, Take);
  Offset += Take;
  return Take;
}

FileSource::FileSource(const std::string &Path)
    : File(std::fopen(Path.c_str(), "rb")) {}

FileSource::~FileSource() {
  if (File)
    std::fclose(File);
}

size_t FileSource::read(void *Out, size_t Size) {
  if (!File)
    return 0;
  return std::fread(Out, 1, Size, File);
}

bool FileSource::exhausted() {
  if (!File)
    return true;
  // Peek one byte: a successful read means trailing garbage.
  uint8_t Byte;
  if (std::fread(&Byte, 1, 1, File) == 1) {
    std::ungetc(Byte, File);
    return false;
  }
  return std::feof(File) != 0;
}

void StreamWriter::writeU32(uint32_t Value) {
  uint8_t Raw[4];
  for (int I = 0; I < 4; ++I)
    Raw[I] = static_cast<uint8_t>(Value >> (8 * I));
  writeBytes(Raw, 4);
}

void StreamWriter::writeU64(uint64_t Value) {
  uint8_t Raw[8];
  for (int I = 0; I < 8; ++I)
    Raw[I] = static_cast<uint8_t>(Value >> (8 * I));
  writeBytes(Raw, 8);
}

void StreamWriter::writeF64(double Value) {
  uint64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  writeU64(Bits);
}

void StreamWriter::writeVarU64(uint64_t Value) {
  uint8_t Encoded[10];
  writeBytes(Encoded, encodeVarU64(Value, Encoded));
}

void StreamWriter::writeBytes(const void *Data, size_t Size) {
  if (Failed)
    return;
  if (!Sink.write(Data, Size))
    Failed = true;
}

uint8_t StreamReader::readU8() {
  uint8_t Value = 0;
  readBytes(&Value, 1);
  return Value;
}

uint32_t StreamReader::readU32() {
  uint8_t Raw[4] = {};
  readBytes(Raw, 4);
  uint32_t Value = 0;
  for (int I = 3; I >= 0; --I)
    Value = (Value << 8) | Raw[I];
  return Value;
}

uint64_t StreamReader::readU64() {
  uint8_t Raw[8] = {};
  readBytes(Raw, 8);
  uint64_t Value = 0;
  for (int I = 7; I >= 0; --I)
    Value = (Value << 8) | Raw[I];
  return Value;
}

double StreamReader::readF64() {
  uint64_t Bits = readU64();
  double Value;
  std::memcpy(&Value, &Bits, sizeof(Value));
  return Value;
}

uint64_t StreamReader::readVarU64() {
  bool Malformed = false;
  const uint64_t Value = decodeVarU64(
      [&]() -> int {
        const uint8_t Byte = readU8();
        return Failed ? -1 : Byte;
      },
      Malformed);
  if (Malformed)
    Failed = true;
  return Value;
}

bool StreamReader::readBytes(void *Out, size_t Count) {
  if (Failed || Source.read(Out, Count) != Count) {
    Failed = true;
    std::memset(Out, 0, Count);
    return false;
  }
  return true;
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
