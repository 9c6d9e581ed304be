//===- heapimage/ImageBundle.cpp - Multi-image wire format ------------------===//

#include "heapimage/ImageBundle.h"

#include "codec/BlockCodec.h"
#include "codec/DeltaCodec.h"
#include "heapimage/ImageFormatDetail.h"

#include <memory>

using namespace exterminator;
using namespace exterminator::imagedetail;

// "XIB1": image bundle, cross-image dictionary.
static constexpr uint32_t BundleMagic = 0x58494231;

void exterminator::serializeImageBundle(const std::vector<HeapImage> &Images,
                                        ByteWriter &Writer) {
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
}

std::vector<uint8_t>
exterminator::serializeImageBundle(const std::vector<HeapImage> &Images) {
  ByteWriter Writer;
  serializeImageBundle(Images, Writer);
  return Writer.take();
}

bool exterminator::deserializeImageBundle(ByteReader &Reader,
                                          std::vector<HeapImage> &ImagesOut,
                                          BundleBudget &Budget) {
  if (Reader.readU32() != BundleMagic ||
      Reader.readU32() != ImageBundleFormatV2)
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

bool exterminator::deserializeImageBundle(const std::vector<uint8_t> &Buffer,
                                          std::vector<HeapImage> &ImagesOut,
                                          BundleBudget &Budget) {
  ByteReader Reader(Buffer);
  return deserializeImageBundle(Reader, ImagesOut, Budget) && Reader.atEnd();
}

bool exterminator::saveImageBundle(const std::vector<HeapImage> &Images,
                                   const std::string &Path) {
  const std::vector<uint8_t> Bundle = serializeImageBundle(Images);
  ByteWriter Writer;
  Writer.writeU32(CompressedBundleMagic);
  encodeCodecStream(Bundle.data(), Bundle.size(), Writer);
  return writeFileBytes(Path, Writer.buffer());
}

bool exterminator::loadImageBundle(const std::string &Path,
                                   std::vector<HeapImage> &ImagesOut) {
  std::vector<uint8_t> File;
  if (!readFileBytes(Path, File))
    return false;
  // The container's stream is exactly one bare bundle, then the codec
  // terminator and the end of the file.
  ByteReader Reader(File);
  std::vector<uint8_t> Bundle;
  return Reader.readU32() == CompressedBundleMagic &&
         decodeCodecStream(Reader, Bundle, MaxBundleFileRawBytes) &&
         Reader.atEnd() && deserializeImageBundle(Bundle, ImagesOut);
}
