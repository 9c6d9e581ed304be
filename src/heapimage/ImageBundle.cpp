//===- heapimage/ImageBundle.cpp - Multi-image wire format ------------------===//

#include "heapimage/ImageBundle.h"

#include "codec/CodecStream.h"
#include "codec/DeltaCodec.h"
#include "heapimage/HeapImageIO.h"
#include "heapimage/ImageFormatDetail.h"

#include <memory>

using namespace exterminator;
using namespace exterminator::imagedetail;

// "XIB1": image bundle, cross-image dictionary.
static constexpr uint32_t BundleMagic = 0x58494231;

bool exterminator::serializeImageBundle(const std::vector<HeapImage> &Images,
                                        ByteSink &Sink) {
  StreamWriter Writer(Sink);
  Writer.writeU32(BundleMagic);
  Writer.writeU32(ImageBundleFormatV2);
  Writer.writeVarU64(Images.size());

  // One dictionary across every image: replicated dumps of the same
  // program reference the same sites, so the union table is barely
  // larger than any one image's table.
  SiteDictionary Sites;
  for (const HeapImage &Image : Images)
    Sites.collect(Image);
  writeSiteTable(Writer, Sites.table());

  // Every body uses the delta codec — the first image with a null base
  // (canary-run encoding only), members referencing the first image's
  // slots by object id (codec/DeltaCodec.h).
  std::unique_ptr<HeapImageView> Base;
  for (const HeapImage &Image : Images) {
    writeImageHeader(Writer, Image);
    writeDeltaImageBody(Writer, Image, Sites, Base.get());
    if (!Base)
      Base = std::make_unique<HeapImageView>(Images.front());
  }
  return !Writer.failed();
}

std::vector<uint8_t>
exterminator::serializeImageBundle(const std::vector<HeapImage> &Images) {
  std::vector<uint8_t> Buffer;
  VectorSink Sink(Buffer);
  if (!serializeImageBundle(Images, Sink))
    Buffer.clear();
  return Buffer;
}

/// Decodes a bundle after its magic: version, count, site table, images.
static bool deserializeBundleBody(StreamReader &Reader,
                                  std::vector<HeapImage> &ImagesOut,
                                  BundleBudget &Budget) {
  if (Reader.readU32() != ImageBundleFormatV2)
    return false;
  const uint64_t NumImages = Reader.readVarU64();
  if (Reader.failed() || NumImages > MaxBundleImages)
    return false;

  std::vector<SiteId> SiteTable;
  if (!readSiteTable(Reader, SiteTable))
    return false;

  ImagesOut.clear();
  ImagesOut.reserve(NumImages);
  std::unique_ptr<HeapImageView> Base;
  for (uint64_t I = 0; I < NumImages; ++I) {
    HeapImage Image;
    readImageHeader(Reader, Image);
    if (Reader.failed())
      return false;
    // One budget across all images: N forged maximal images cannot
    // multiply what one is allowed to declare.  The first image reads
    // with a null base — readDeltaImageBody rejects reference tags
    // there, so a forged bundle cannot make image 0 reference a base
    // that does not exist.
    if (!readDeltaImageBody(Reader, Image, SiteTable, Base.get(), Budget))
      return false;
    ImagesOut.push_back(std::move(Image));
    if (!Base)
      Base = std::make_unique<HeapImageView>(ImagesOut.front());
  }
  return !Reader.failed();
}

bool exterminator::deserializeImageBundle(ByteSource &Source,
                                          std::vector<HeapImage> &ImagesOut,
                                          BundleBudget &Budget) {
  StreamReader Reader(Source);
  if (Reader.readU32() != BundleMagic)
    return false;
  return deserializeBundleBody(Reader, ImagesOut, Budget);
}

bool exterminator::deserializeImageBundle(const std::vector<uint8_t> &Buffer,
                                          std::vector<HeapImage> &ImagesOut,
                                          BundleBudget &Budget) {
  MemorySource Source(Buffer);
  if (!deserializeImageBundle(Source, ImagesOut, Budget))
    return false;
  return Source.remaining() == 0;
}

bool exterminator::saveImageBundle(const std::vector<HeapImage> &Images,
                                   const std::string &Path) {
  FileSink Sink(Path);
  if (!Sink.ok())
    return false;
  StreamWriter Header(Sink);
  Header.writeU32(CompressedBundleMagic);
  if (Header.failed())
    return false;
  CompressingSink Zip(Sink);
  if (!serializeImageBundle(Images, Zip))
    return false;
  if (!Zip.finish())
    return false;
  return Sink.close();
}

bool exterminator::loadImageBundle(const std::string &Path,
                                   std::vector<HeapImage> &ImagesOut) {
  FileSource Source(Path);
  if (!Source.ok())
    return false;
  StreamReader Header(Source);
  if (Header.readU32() != CompressedBundleMagic)
    return false;
  // The container's stream is exactly one bare bundle, then the codec
  // terminator and the end of the file.
  DecompressingSource Unzip(Source);
  if (!deserializeImageBundle(Unzip, ImagesOut))
    return false;
  uint8_t Tail = 0;
  return Unzip.read(&Tail, 1) == 0 && Unzip.finished() && Source.exhausted();
}
