//===- diagnose/DiagnosisPipeline.cpp - Unified diagnosis ------------------===//

#include "diagnose/DiagnosisPipeline.h"

#include "cumulative/SiteEstimator.h"
#include "patch/PatchIO.h"
#include "support/Serializer.h"

#include <algorithm>
#include <cstdio>

using namespace exterminator;

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

IsolationResult
DiagnosisPipeline::isolateImages(const ImageEvidence &Evidence) const {
  IsolationResult Result = isolateErrors(Evidence.Primary, Config.Isolation);
  // A fallback set too small to isolate keeps the primary's findings
  // (sub-threshold candidates still reach the caller).
  if (Result.Patches.empty() && Evidence.Fallback.size() >= 2)
    Result = isolateErrors(Evidence.Fallback, Config.Isolation);
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
  return Writer.take();
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
