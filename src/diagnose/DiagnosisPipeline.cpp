//===- diagnose/DiagnosisPipeline.cpp - Unified diagnosis ------------------===//

#include "diagnose/DiagnosisPipeline.h"

#include "cumulative/SiteEstimator.h"
#include "patch/PatchIO.h"
#include "support/Serializer.h"

#include <algorithm>
#include <cstdio>

using namespace exterminator;

/// Cached indexed image sets per pipeline.  Submissions in practice
/// alternate between at most a primary and a fallback set plus retries,
/// so a handful of slots covers the reuse without unbounded growth.
static constexpr size_t MaxCachedViewSets = 4;

DiagnosisPipeline::DiagnosisPipeline(const DiagnosisConfig &Config)
    : Config(Config), Cumulative(Config.Cumulative) {}

void DiagnosisPipeline::mergeActive(const PatchSet &Derived) {
  // merge reports change itself, so the common nothing-new ingest pays
  // no copy or deep compare of the active set.
  if (!Derived.empty() && Active.merge(Derived))
    ++Epoch;
}

void DiagnosisPipeline::seedPatches(const PatchSet &Initial) {
  mergeActive(Initial);
}

std::shared_ptr<const DiagnosisPipeline::IndexedImages>
DiagnosisPipeline::indexedViews(const std::vector<HeapImage> &Images) const {
  if (Images.size() < 2)
    return nullptr;

  uint64_t Fingerprint = 0x243F6A8885A308D3ull ^ Images.size();
  for (const HeapImage &Image : Images)
    Fingerprint ^= heapImageFingerprint(Image) * 0x100000001B3ull;

  // Collect fingerprint-matching candidates under the lock, but run
  // the O(image-bytes) equality verification outside it — entries are
  // immutable and the shared_ptr protects against eviction, so a long
  // comparison must not serialize concurrent submissions.
  std::vector<std::shared_ptr<const IndexedImages>> Candidates;
  bool SeenBefore = false;
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    for (CacheSlot &Slot : ViewCache)
      if (Slot.Fingerprint == Fingerprint &&
          Slot.Entry->OwnedImages.size() == Images.size())
        Candidates.push_back(Slot.Entry);
    // Caching an entry copies the whole image set, and most evidence a
    // long-running server sees is distinct — so only a fingerprint's
    // *second* sighting pays for retention (retries and duplicate
    // submissions repeat quickly; one-off evidence never pays).
    for (uint64_t Recent : RecentFingerprints)
      SeenBefore |= Recent == Fingerprint;
    if (!SeenBefore && Candidates.empty()) {
      if (RecentFingerprints.size() >= MaxRecentFingerprints)
        RecentFingerprints.erase(RecentFingerprints.begin());
      RecentFingerprints.push_back(Fingerprint);
    }
  }
  for (const std::shared_ptr<const IndexedImages> &Candidate : Candidates) {
    // A fingerprint hit still verifies full equality, so a collision
    // costs a rebuild, never a diagnosis over the wrong images.
    bool Equal = true;
    for (size_t I = 0; I < Images.size() && Equal; ++I)
      Equal = Candidate->OwnedImages[I] == Images[I];
    if (!Equal)
      continue;
    CacheHits.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(CacheMutex);
    for (CacheSlot &Slot : ViewCache)
      if (Slot.Entry == Candidate)
        Slot.LastUse = ++CacheClock;
    return Candidate;
  }
  CacheMisses.fetch_add(1, std::memory_order_relaxed);
  // A cached candidate that fails equality is a fingerprint collision:
  // treat it as a second sighting so the colliding set can still be
  // cached (insertion below replaces nothing; both entries coexist).
  if (!Candidates.empty())
    SeenBefore = true;

  // Build outside the lock: indexing is the expensive part, and two
  // concurrent builders of the same set merely race to insert.
  auto Entry = std::make_shared<IndexedImages>();
  if (!SeenBefore) {
    // Ephemeral: views borrow the caller's images (no copy, not
    // cached); the holder only lives for this isolation call.
    Entry->Views.reserve(Images.size());
    for (const HeapImage &Image : Images)
      Entry->Views.emplace_back(Image);
    return Entry;
  }
  Entry->OwnedImages = Images;
  Entry->Views.reserve(Entry->OwnedImages.size());
  for (const HeapImage &Image : Entry->OwnedImages)
    Entry->Views.emplace_back(Image);

  std::lock_guard<std::mutex> Lock(CacheMutex);
  if (ViewCache.size() >= MaxCachedViewSets) {
    size_t Oldest = 0;
    for (size_t I = 1; I < ViewCache.size(); ++I)
      if (ViewCache[I].LastUse < ViewCache[Oldest].LastUse)
        Oldest = I;
    ViewCache.erase(ViewCache.begin() + Oldest);
  }
  ViewCache.push_back({Fingerprint, ++CacheClock, Entry});
  return Entry;
}

IsolationResult
DiagnosisPipeline::isolateImages(const ImageEvidence &Evidence) const {
  IsolationResult Result;
  if (auto Primary = indexedViews(Evidence.Primary))
    Result = isolateErrors(Primary->Views, Config.Isolation);
  if (Result.Patches.empty())
    if (auto Fallback = indexedViews(Evidence.Fallback))
      Result = isolateErrors(Fallback->Views, Config.Isolation);
  return Result;
}

void DiagnosisPipeline::absorbIsolation(const IsolationResult &Result) {
  mergeActive(Result.Patches);
}

IsolationResult DiagnosisPipeline::submitImages(const ImageEvidence &Evidence) {
  IsolationResult Result = isolateImages(Evidence);
  absorbIsolation(Result);
  return Result;
}

RunSummary DiagnosisPipeline::summarize(const HeapImage &FinalImage,
                                        bool Failed) const {
  return summarizeRun(FinalImage, Failed);
}

CumulativeDiagnosis DiagnosisPipeline::submitSummary(const RunSummary &Summary,
                                                     unsigned CleanStreak) {
  Cumulative.addRun(Summary);

  CumulativeDiagnosis Diagnosis;
  Diagnosis.Overflows = Cumulative.classifyOverflows();
  Diagnosis.Danglings = Cumulative.classifyDanglings();

  // Fold findings into the active patch set.  A deferral that has
  // already been applied but keeps failing doubles instead — the §6.2
  // logarithmic-convergence rule — because post-patch failures measure
  // their free-to-failure distance from the already-deferred free.
  PatchSet Derived;
  for (const CumulativeOverflowFinding &Finding : Diagnosis.Overflows)
    Derived.addPad(Finding.AllocSite, Finding.PadBytes);
  for (const CumulativeDanglingFinding &Finding : Diagnosis.Danglings) {
    const uint64_t Existing =
        Active.deferralFor(Finding.AllocSite, Finding.FreeSite);
    uint64_t Target = Finding.DeferralTicks;
    if (Existing > 0 && CleanStreak == 0)
      Target = std::max(Target, Existing * 2 + 1);
    Derived.addDeferral(Finding.AllocSite, Finding.FreeSite, Target);
  }
  mergeActive(Derived);
  return Diagnosis;
}

std::string DiagnosisPipeline::report(const SiteRegistry *Registry) const {
  return generatePatchReport(Active, Registry);
}

/// Pipeline-state blob magic ("XDS1"): epoch + active set + cumulative
/// isolator state, the payload the exchange StateStore snapshots.
static constexpr uint32_t PipelineStateMagic = 0x58445331;

std::vector<uint8_t> DiagnosisPipeline::serializeState() const {
  ByteWriter Writer;
  Writer.writeU32(PipelineStateMagic);
  Writer.writeU64(Epoch);
  Writer.writeBlob(serializePatchSet(Active));
  Writer.writeBlob(Cumulative.serialize());
  return Writer.buffer();
}

bool DiagnosisPipeline::restoreState(const std::vector<uint8_t> &Buffer) {
  ByteReader Reader(Buffer);
  if (Reader.readU32() != PipelineStateMagic)
    return false;
  const uint64_t NewEpoch = Reader.readU64();
  const std::vector<uint8_t> PatchBytes = Reader.readBlob();
  const std::vector<uint8_t> CumulativeBytes = Reader.readBlob();
  if (Reader.failed() || !Reader.atEnd())
    return false;
  // Decode both halves into locals before touching any member: the
  // deserializers are themselves all-or-nothing, so a failure here
  // leaves the pipeline exactly as it was.
  PatchSet NewActive;
  if (!deserializePatchSet(PatchBytes, NewActive))
    return false;
  CumulativeIsolator NewCumulative(Config.Cumulative);
  if (!NewCumulative.deserialize(CumulativeBytes))
    return false;
  Epoch = NewEpoch;
  Active = std::move(NewActive);
  Cumulative = std::move(NewCumulative);
  return true;
}

/// Renders a 32-bit site id the way reports print them.
static std::string formatSite(SiteId Site) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "0x%08x", Site);
  return Buf;
}

void DiagnosisPipeline::collectMetrics(std::vector<MetricSample> &Out,
                                       size_t MaxSites) const {
  MetricsRegistry::addGauge(Out, "xterm_epoch", {}, double(Epoch));
  MetricsRegistry::addGauge(Out, "xterm_active_patches",
                            MetricsRegistry::label("kind", "pad"),
                            double(Active.padCount()));
  MetricsRegistry::addGauge(Out, "xterm_active_patches",
                            MetricsRegistry::label("kind", "front_pad"),
                            double(Active.frontPadCount()));
  MetricsRegistry::addGauge(Out, "xterm_active_patches",
                            MetricsRegistry::label("kind", "deferral"),
                            double(Active.deferralCount()));
  MetricsRegistry::addGauge(Out, "xterm_active_patches",
                            MetricsRegistry::label("kind", "hardware_page"),
                            double(Active.hardwareReportCount()));
  // Σ max-merged evidence regions: monotone under merge, hence a counter.
  MetricsRegistry::addCounter(Out, "xterm_hardware_faults_total", {},
                              double(Active.hardwareEvidenceTotal()));
  MetricsRegistry::addCounter(Out, "xterm_cumulative_runs_total", {},
                              double(Cumulative.runCount()));
  MetricsRegistry::addCounter(Out, "xterm_cumulative_failed_runs_total", {},
                              double(Cumulative.failedRunCount()));
  MetricsRegistry::addCounter(Out, "xterm_cumulative_corrupt_runs_total", {},
                              double(Cumulative.corruptRunCount()));
  const double Hits = double(CacheHits.load(std::memory_order_relaxed));
  const double Misses = double(CacheMisses.load(std::memory_order_relaxed));
  MetricsRegistry::addCounter(Out, "xterm_image_cache_hits_total", {}, Hits);
  MetricsRegistry::addCounter(Out, "xterm_image_cache_misses_total", {},
                              Misses);
  MetricsRegistry::addGauge(Out, "xterm_image_cache_hit_ratio", {},
                            Hits + Misses > 0 ? Hits / (Hits + Misses) : 0.0);
  for (const SitePosterior &P : Cumulative.sitePosteriors(MaxSites)) {
    std::string Labels =
        P.Dangling
            ? MetricsRegistry::label("kind", "dangling") + "," +
                  MetricsRegistry::label("alloc", formatSite(P.AllocSite)) +
                  "," + MetricsRegistry::label("free", formatSite(P.FreeSite))
            : MetricsRegistry::label("kind", "overflow") + "," +
                  MetricsRegistry::label("site", formatSite(P.AllocSite));
    MetricsRegistry::addGauge(Out, "xterm_site_posterior", Labels, P.margin());
    MetricsRegistry::addCounter(Out, "xterm_site_trials_total",
                                std::move(Labels), double(P.TrialCount));
  }
}
