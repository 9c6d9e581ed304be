//===- observe/AlertEngine.h - Threshold alerting with hysteresis -*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability plane's alerting half: declarative threshold rules
/// evaluated against metric snapshots, in the netdata health.d idiom —
/// a warn and/or crit threshold over one metric, an `every` evaluation
/// cadence, and a de-escalation `delay` so a metric flapping across the
/// threshold raises exactly one alert instead of a storm.
///
/// Hysteresis contract: escalation is immediate (a crossing raises on
/// the evaluation that sees it); de-escalation is delayed — the
/// proposed severity must stay below the held severity for
/// ClearDelayTicks consecutive ticks before the alert steps down, and
/// any re-crossing in between resets the countdown.  This gives the
/// operator the netdata property that a posterior oscillating
/// around the classification bar shows one steady WARNING, not a
/// raise/clear pair per oscillation.
///
/// Time is an abstract uint64_t tick supplied by the caller (the watch
/// CLI uses poll rounds; tests use plain integers), which keeps every
/// transition deterministic and unit-testable.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_OBSERVE_ALERTENGINE_H
#define EXTERMINATOR_OBSERVE_ALERTENGINE_H

#include "observe/MetricsRegistry.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace exterminator {

enum class AlertSeverity : uint8_t {
  Clear = 0,
  Warning = 1,
  Critical = 2,
};

const char *alertSeverityName(AlertSeverity Severity);

/// One declarative threshold rule.
struct AlertRule {
  /// Rule identity, e.g. "site_posterior_classified".
  std::string Name;
  /// Snapshot sample name it watches; a labelled family is aggregated
  /// by max over its samples (any one bad site trips the rule).
  std::string Metric;
  /// Comparison applied to the aggregated value at each threshold.
  enum class Compare : uint8_t {
    GreaterThan,
    GreaterOrEqual,
  };
  Compare Cmp = Compare::GreaterThan;
  /// Thresholds; an empty optional disables that level.
  std::optional<double> Warn;
  std::optional<double> Crit;
  /// Evaluate only every N ticks (netdata `every`).
  uint64_t EveryTicks = 1;
  /// Consecutive below-severity ticks required before de-escalating
  /// (netdata `delay: down`).  0 de-escalates immediately.
  uint64_t ClearDelayTicks = 3;
};

/// The live state of one rule.
struct AlertStatus {
  AlertRule Rule;
  AlertSeverity Severity = AlertSeverity::Clear;
  /// Last aggregated value seen; meaningless until HasValue.
  double LastValue = 0.0;
  bool HasValue = false;
  /// Labels of the sample that drove the aggregate (the worst site),
  /// for rendering.
  std::string WorstLabels;
  /// Count of Clear -> raised transitions — the "exactly one alert"
  /// number the hysteresis tests pin.
  uint64_t RaisedEvents = 0;
  uint64_t LastTransitionTick = 0;

  // Internal evaluation state.
  uint64_t NextEvalTick = 0;
  bool PendingDown = false;
  uint64_t PendingDownSince = 0;
};

/// Evaluates a rule set against successive snapshots.
class AlertEngine {
public:
  void addRule(const AlertRule &Rule);

  /// Installs the built-in rules: warn when any site's corruption
  /// posterior (xterm_site_posterior, the margin over the §5.1
  /// classification bar) reaches 0; crit on any journal persist
  /// failure or hardware-fault report.
  void addBuiltinRules();

  /// Advances every due rule against \p Snap at \p Tick.  Ticks must be
  /// non-decreasing.  A rule whose metric is absent from the snapshot
  /// holds its state (no data is not evidence of recovery).
  void evaluate(const MetricsSnapshot &Snap, uint64_t Tick);

  const std::vector<AlertStatus> &status() const { return Rules; }

  /// Rules currently above Clear.
  std::vector<AlertStatus> active() const;

  /// Terse one-line-per-active-alert rendering for `xtermtool watch`;
  /// empty string when everything is clear.
  std::string renderText() const;

private:
  std::vector<AlertStatus> Rules;
};

} // namespace exterminator

#endif // EXTERMINATOR_OBSERVE_ALERTENGINE_H
