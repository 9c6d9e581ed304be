//===- cumulative/RunSummary.cpp - Per-run summaries ------------------------===//

#include "cumulative/RunSummary.h"

#include "support/Serializer.h"

using namespace exterminator;

static constexpr uint32_t SummaryMagic = 0x58525331; // "XRS1"

/// Per-category trial bound for deserialization.  One run's trials are
/// bounded by the sites the program touched — real summaries carry
/// dozens to hundreds ("a few kilobytes per execution", §5) — so 16K is
/// generous headroom while keeping a forged summary from declaring
/// millions of distinct sites, each of which would cost the ingesting
/// CumulativeIsolator a trial-state entry (now including the ~4 KB
/// incremental Bayes accumulator).
static constexpr uint64_t MaxSummaryTrials = uint64_t(1) << 14;

/// A trial's X is a probability.  The §5 classifier clamps it to
/// [ε, 1 − ε] but would carry a NaN through into the Bayes factor, so
/// anything outside [0, 1] is refused here (NaN fails both compares).
static bool isProbability(double P) { return P >= 0.0 && P <= 1.0; }

std::vector<uint8_t>
exterminator::serializeRunSummary(const RunSummary &Summary) {
  ByteWriter Writer;
  Writer.writeU32(SummaryMagic);
  Writer.writeU8(Summary.Failed ? 1 : 0);
  Writer.writeU8(Summary.CorruptionObserved ? 1 : 0);
  Writer.writeU64(Summary.EndTime);
  Writer.writeU64(Summary.OverflowTrials.size());
  for (const OverflowTrial &Trial : Summary.OverflowTrials) {
    Writer.writeU32(Trial.AllocSite);
    Writer.writeF64(Trial.Probability);
    Writer.writeU8(Trial.Observed ? 1 : 0);
    Writer.writeU32(Trial.PadEstimate);
  }
  Writer.writeU64(Summary.DanglingTrials.size());
  for (const DanglingTrial &Trial : Summary.DanglingTrials) {
    Writer.writeU32(Trial.AllocSite);
    Writer.writeU32(Trial.FreeSite);
    Writer.writeF64(Trial.Probability);
    Writer.writeU8(Trial.Observed ? 1 : 0);
    Writer.writeU64(Trial.FreeToFailure);
  }
  return Writer.take();
}

bool exterminator::deserializeRunSummary(const std::vector<uint8_t> &Buffer,
                                         RunSummary &SummaryOut) {
  ByteReader Reader(Buffer);
  if (Reader.readU32() != SummaryMagic)
    return false;
  SummaryOut = RunSummary();
  SummaryOut.Failed = Reader.readU8() != 0;
  SummaryOut.CorruptionObserved = Reader.readU8() != 0;
  SummaryOut.EndTime = Reader.readU64();
  const uint64_t NumOverflow = Reader.readU64();
  if (Reader.failed() || NumOverflow > MaxSummaryTrials)
    return false;
  for (uint64_t I = 0; I < NumOverflow && !Reader.failed(); ++I) {
    OverflowTrial Trial;
    Trial.AllocSite = Reader.readU32();
    Trial.Probability = Reader.readF64();
    Trial.Observed = Reader.readU8() != 0;
    Trial.PadEstimate = Reader.readU32();
    if (!isProbability(Trial.Probability))
      return false;
    SummaryOut.OverflowTrials.push_back(Trial);
  }
  const uint64_t NumDangling = Reader.readU64();
  if (Reader.failed() || NumDangling > MaxSummaryTrials)
    return false;
  for (uint64_t I = 0; I < NumDangling && !Reader.failed(); ++I) {
    DanglingTrial Trial;
    Trial.AllocSite = Reader.readU32();
    Trial.FreeSite = Reader.readU32();
    Trial.Probability = Reader.readF64();
    Trial.Observed = Reader.readU8() != 0;
    Trial.FreeToFailure = Reader.readU64();
    if (!isProbability(Trial.Probability))
      return false;
    SummaryOut.DanglingTrials.push_back(Trial);
  }
  return Reader.atEnd();
}
