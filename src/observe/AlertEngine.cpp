//===- observe/AlertEngine.cpp - Threshold alerting with hysteresis -------===//

#include "observe/AlertEngine.h"

#include <cstdio>

using namespace exterminator;

const char *exterminator::alertSeverityName(AlertSeverity Severity) {
  switch (Severity) {
  case AlertSeverity::Clear:
    return "CLEAR";
  case AlertSeverity::Warning:
    return "WARNING";
  case AlertSeverity::Critical:
    return "CRITICAL";
  }
  return "unknown";
}

void AlertEngine::addRule(const AlertRule &Rule) {
  AlertStatus Status;
  Status.Rule = Rule;
  if (Status.Rule.EveryTicks == 0)
    Status.Rule.EveryTicks = 1;
  Rules.push_back(std::move(Status));
}

void AlertEngine::addBuiltinRules() {
  AlertRule Posterior;
  Posterior.Name = "site_posterior_classified";
  Posterior.Metric = "xterm_site_posterior";
  Posterior.Cmp = AlertRule::Compare::GreaterOrEqual;
  // The exported posterior is logBF minus the classification threshold,
  // so crossing 0 IS crossing the §5.1 bar.
  Posterior.Warn = 0.0;
  addRule(Posterior);

  AlertRule Persist;
  Persist.Name = "persist_failures";
  Persist.Metric = "xterm_persist_failures_total";
  Persist.Cmp = AlertRule::Compare::GreaterThan;
  Persist.Crit = 0.0;
  addRule(Persist);

  // A hardware-fault report means a physical page is corrupting memory
  // right now — software patches cannot fix it and every process
  // sharing the DIMM is at risk, so it pages immediately (PR 9).
  AlertRule Hardware;
  Hardware.Name = "hardware_fault_detected";
  Hardware.Metric = "xterm_hardware_faults_total";
  Hardware.Cmp = AlertRule::Compare::GreaterThan;
  Hardware.Crit = 0.0;
  addRule(Hardware);
}

static bool crosses(AlertRule::Compare Cmp, double Value, double Threshold) {
  return Cmp == AlertRule::Compare::GreaterThan ? Value > Threshold
                                                : Value >= Threshold;
}

void AlertEngine::evaluate(const MetricsSnapshot &Snap, uint64_t Tick) {
  for (AlertStatus &Status : Rules) {
    if (Tick < Status.NextEvalTick)
      continue;
    Status.NextEvalTick = Tick + Status.Rule.EveryTicks;

    // Aggregate the watched family by max, remembering which sample
    // drove it.
    bool Found = false;
    double Value = 0.0;
    std::string_view Worst;
    for (const MetricSample &S : Snap.Samples) {
      if (S.Name != Status.Rule.Metric)
        continue;
      if (!Found || S.Value > Value) {
        Value = S.Value;
        Worst = S.Labels;
      }
      Found = true;
    }
    if (!Found)
      continue; // absent metric: hold state
    Status.LastValue = Value;
    Status.HasValue = true;
    Status.WorstLabels = Worst;

    AlertSeverity Proposed = AlertSeverity::Clear;
    if (Status.Rule.Warn && crosses(Status.Rule.Cmp, Value, *Status.Rule.Warn))
      Proposed = AlertSeverity::Warning;
    if (Status.Rule.Crit && crosses(Status.Rule.Cmp, Value, *Status.Rule.Crit))
      Proposed = AlertSeverity::Critical;

    if (Proposed >= Status.Severity) {
      // Escalations (and holds) apply immediately; any pending
      // de-escalation countdown is cancelled by the re-crossing.
      if (Proposed > Status.Severity) {
        if (Status.Severity == AlertSeverity::Clear)
          ++Status.RaisedEvents;
        Status.Severity = Proposed;
        Status.LastTransitionTick = Tick;
      }
      Status.PendingDown = false;
      continue;
    }
    if (!Status.PendingDown) {
      Status.PendingDown = true;
      Status.PendingDownSince = Tick;
    }
    if (Tick - Status.PendingDownSince >= Status.Rule.ClearDelayTicks) {
      Status.Severity = Proposed;
      Status.LastTransitionTick = Tick;
      Status.PendingDown = false;
    }
  }
}

std::vector<AlertStatus> AlertEngine::active() const {
  std::vector<AlertStatus> Out;
  for (const AlertStatus &Status : Rules)
    if (Status.Severity != AlertSeverity::Clear)
      Out.push_back(Status);
  return Out;
}

std::string AlertEngine::renderText() const {
  std::string Out;
  for (const AlertStatus &Status : Rules) {
    if (Status.Severity == AlertSeverity::Clear)
      continue;
    char Line[256];
    std::snprintf(Line, sizeof(Line), "%s %s = %.6g (%s%s%s)\n",
                  alertSeverityName(Status.Severity),
                  Status.Rule.Name.c_str(), Status.LastValue,
                  Status.Rule.Metric.c_str(),
                  Status.WorstLabels.empty() ? "" : " ",
                  Status.WorstLabels.c_str());
    Out += Line;
  }
  return Out;
}
