//===- patch/PatchIO.cpp - Patch file format --------------------------------===//

#include "patch/PatchIO.h"

#include "support/Serializer.h"

#include <utility>

using namespace exterminator;

static constexpr uint32_t PatchMagic = 0x58505432;   // "XPT2"
static constexpr uint32_t PatchMagicV3 = 0x58505433; // "XPT3": + hardware

std::vector<uint8_t> exterminator::serializePatchSet(const PatchSet &Patches) {
  // Sets without hardware reports serialize as XPT2, byte-identical to
  // the pre-PR-9 format: pure-software patch files (and their on-disk
  // fingerprints) are unchanged, and old readers keep working on them.
  const std::vector<HardwareFaultReport> Hardware = Patches.hardwareReports();
  ByteWriter Writer;
  Writer.writeU32(Hardware.empty() ? PatchMagic : PatchMagicV3);
  const std::vector<PadPatch> Pads = Patches.pads();
  const std::vector<FrontPadPatch> FrontPads = Patches.frontPads();
  const std::vector<DeferralPatch> Deferrals = Patches.deferrals();
  Writer.writeU64(Pads.size());
  for (const PadPatch &Pad : Pads) {
    Writer.writeU32(Pad.AllocSite);
    Writer.writeU32(Pad.PadBytes);
  }
  Writer.writeU64(FrontPads.size());
  for (const FrontPadPatch &Pad : FrontPads) {
    Writer.writeU32(Pad.AllocSite);
    Writer.writeU32(Pad.PadBytes);
  }
  Writer.writeU64(Deferrals.size());
  for (const DeferralPatch &Deferral : Deferrals) {
    Writer.writeU32(Deferral.AllocSite);
    Writer.writeU32(Deferral.FreeSite);
    Writer.writeU64(Deferral.DeferTicks);
  }
  if (!Hardware.empty()) {
    Writer.writeU64(Hardware.size());
    for (const HardwareFaultReport &Report : Hardware) {
      Writer.writeU64(Report.PageAddress);
      Writer.writeU32(Report.KindMask);
      Writer.writeU64(Report.EvidenceRegions);
    }
  }
  return Writer.take();
}

bool exterminator::deserializePatchSet(const std::vector<uint8_t> &Buffer,
                                       PatchSet &PatchesOut) {
  // Decode into a local and swap only on success: a buffer malformed
  // mid-stream (a torn state file) must never leave \p PatchesOut half
  // populated — a partially-seeded server would serve weaker patches
  // than it claims to hold.
  ByteReader Reader(Buffer);
  const uint32_t Magic = Reader.readU32();
  if (Magic != PatchMagic && Magic != PatchMagicV3)
    return false;
  PatchSet Decoded;
  const uint64_t NumPads = Reader.readU64();
  for (uint64_t I = 0; I < NumPads && !Reader.failed(); ++I) {
    SiteId Site = Reader.readU32();
    uint32_t Pad = Reader.readU32();
    Decoded.addPad(Site, Pad);
  }
  const uint64_t NumFrontPads = Reader.readU64();
  for (uint64_t I = 0; I < NumFrontPads && !Reader.failed(); ++I) {
    SiteId Site = Reader.readU32();
    uint32_t Pad = Reader.readU32();
    Decoded.addFrontPad(Site, Pad);
  }
  const uint64_t NumDeferrals = Reader.readU64();
  for (uint64_t I = 0; I < NumDeferrals && !Reader.failed(); ++I) {
    SiteId AllocSite = Reader.readU32();
    SiteId FreeSite = Reader.readU32();
    uint64_t Defer = Reader.readU64();
    Decoded.addDeferral(AllocSite, FreeSite, Defer);
  }
  if (Magic == PatchMagicV3) {
    const uint64_t NumHardware = Reader.readU64();
    for (uint64_t I = 0; I < NumHardware && !Reader.failed(); ++I) {
      uint64_t Page = Reader.readU64();
      uint32_t Mask = Reader.readU32();
      uint64_t Evidence = Reader.readU64();
      Decoded.addHardwareReport(Page, Mask, Evidence);
    }
  }
  if (!Reader.atEnd())
    return false;
  PatchesOut = std::move(Decoded);
  return true;
}

bool exterminator::savePatchSet(const PatchSet &Patches,
                                const std::string &Path) {
  return writeFileBytes(Path, serializePatchSet(Patches));
}

bool exterminator::loadPatchSet(const std::string &Path,
                                PatchSet &PatchesOut) {
  std::vector<uint8_t> Buffer;
  if (!readFileBytes(Path, Buffer))
    return false;
  return deserializePatchSet(Buffer, PatchesOut);
}
