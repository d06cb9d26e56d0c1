// The overload controller of the serving tier (DESIGN.md section 11): a
// tiny regime state machine over the two congestion signals the server
// already maintains — the in-flight gauge (admitted, not yet completed,
// the quantity the admission bound caps) and the submit-to-flush queue
// delay (the queue_us histogram's input). It picks one of three regimes:
//
//   kNormal  — serve everything at requested precision.
//   kDegrade — graceful precision degradation: incoming Monte-Carlo specs
//              that did not ask for an explicit precision are given the
//              server-default epsilon target, so answers get *cheaper*
//              (adaptive early stopping, DESIGN.md section 8) instead of
//              requests getting dropped. Still-correct-within-epsilon by
//              the Wilson/Hoeffding bounds; counted as degraded_requests.
//   kShed    — adaptive load shedding: requests at or below the priority
//              floor are rejected at admission (kResourceLimit, counted as
//              rejected_shed) *before* they cost a queue slot or lane time,
//              so the work that is admitted still completes inside its
//              deadline — the difference between goodput staying flat past
//              saturation and collapsing.
//
// Escalation is immediate (a signal over a watermark raises the regime on
// the next update); de-escalation steps down one regime per update and only
// once the signal cleared the entry watermark by `exit_hysteresis`, so the
// regime does not flap at a watermark boundary. The controller is a plain
// object — the server calls it under its own mutex — and its decisions are
// a pure function of the observed signal sequence, so tests can drive it
// deterministically.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ust {

/// \brief Serving regime, ordered by severity.
enum class OverloadRegime { kNormal = 0, kDegrade = 1, kShed = 2 };

/// Stable lowercase name ("normal", "degrade", "shed").
const char* OverloadRegimeName(OverloadRegime regime);

/// \brief Controller thresholds and degradation policy.
struct OverloadOptions {
  /// Master switch: false pins kNormal (no degradation, no shedding; the
  /// hard admission bound still applies).
  bool enabled = true;
  /// Enter kDegrade when in_flight / capacity reaches this fraction.
  double degrade_watermark = 0.50;
  /// Enter kShed when in_flight / capacity reaches this fraction.
  double shed_watermark = 0.85;
  /// De-escalate only once the signal is this far *below* the entry
  /// watermark (fraction of capacity / of the queue-delay threshold).
  double exit_hysteresis = 0.10;
  /// Enter kDegrade / kShed when the queue-delay EWMA (submit-to-flush,
  /// milliseconds) reaches these. Generous defaults: a healthy server
  /// flushes at once to an idle lane and within ~max_batch_delay_ms while
  /// every lane is busy, so sustained 250x that window means the lanes
  /// cannot keep up regardless of the in-flight count.
  double degrade_queue_ms = 250.0;
  double shed_queue_ms = 1000.0;
  /// EWMA smoothing factor for the queue-delay signal (per batch flushed).
  double queue_ewma_alpha = 0.2;
  /// The server-default precision applied to degradable specs in kDegrade:
  /// stop sampling once the estimate is within +-epsilon at confidence
  /// 1 - delta (PrecisionMode::kEpsilon).
  double degrade_epsilon = 0.05;
  double degrade_delta = 0.05;
  /// kShed rejects requests with QuerySpec::priority at or below this.
  /// Default traffic (priority 0) sheds; clients mark latency-critical
  /// requests with a higher priority to ride out the overload.
  int shed_max_priority = 0;
};

/// \brief The regime state machine. Not internally synchronized: the owner
/// serializes Update/NoteQueueDelay/regime (the server holds its mutex).
class OverloadController {
 public:
  explicit OverloadController(OverloadOptions options = {});

  /// Observe the admission-time signal and return the regime to apply to
  /// the *current* request. `capacity` is the admission bound.
  OverloadRegime Update(size_t in_flight, size_t capacity);

  /// Observe one request's submit-to-flush delay (dispatcher, per request
  /// at flush time; microseconds — the queue_us histogram's unit).
  void NoteQueueDelay(double micros);

  /// Forget the queue-delay signal; the server calls this when its last
  /// in-flight request completes. Only flushed requests feed the EWMA, so
  /// without this one long wait would pin the regime with no traffic left
  /// to decay it — shedding every default-priority submit for good.
  void ClearQueueDelay();

  OverloadRegime regime() const { return regime_; }
  /// Smoothed queue delay, milliseconds (0 until the first flush and
  /// after ClearQueueDelay).
  double queue_delay_ewma_ms() const { return queue_ewma_ms_; }
  /// Regime escalations seen (normal->degrade counts 1, normal->shed 2).
  uint64_t escalations() const { return escalations_; }

  const OverloadOptions& options() const { return options_; }

 private:
  /// Severity the raw signals call for, ignoring hysteresis.
  OverloadRegime Target(double utilization) const;
  /// True when `utilization` cleared `watermark` by the exit hysteresis and
  /// the queue EWMA cleared `queue_ms` likewise.
  bool ClearedFor(double utilization, double watermark,
                  double queue_ms) const;

  OverloadOptions options_;
  OverloadRegime regime_ = OverloadRegime::kNormal;
  double queue_ewma_ms_ = 0.0;
  bool has_queue_sample_ = false;  ///< the EWMA holds at least one sample
  uint64_t escalations_ = 0;
};

}  // namespace ust
