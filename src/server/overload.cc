#include "server/overload.h"

namespace ust {

const char* OverloadRegimeName(OverloadRegime regime) {
  switch (regime) {
    case OverloadRegime::kNormal: return "normal";
    case OverloadRegime::kDegrade: return "degrade";
    case OverloadRegime::kShed: return "shed";
  }
  return "unknown";
}

OverloadController::OverloadController(OverloadOptions options)
    : options_(options) {}

void OverloadController::NoteQueueDelay(double micros) {
  const double ms = micros / 1000.0;
  const double alpha = options_.queue_ewma_alpha;
  if (!has_queue_sample_) {
    queue_ewma_ms_ = ms;
    has_queue_sample_ = true;
  } else {
    queue_ewma_ms_ = alpha * ms + (1.0 - alpha) * queue_ewma_ms_;
  }
}

void OverloadController::ClearQueueDelay() {
  queue_ewma_ms_ = 0.0;
  has_queue_sample_ = false;
}

OverloadRegime OverloadController::Target(double utilization) const {
  if (utilization >= options_.shed_watermark ||
      queue_ewma_ms_ >= options_.shed_queue_ms) {
    return OverloadRegime::kShed;
  }
  if (utilization >= options_.degrade_watermark ||
      queue_ewma_ms_ >= options_.degrade_queue_ms) {
    return OverloadRegime::kDegrade;
  }
  return OverloadRegime::kNormal;
}

bool OverloadController::ClearedFor(double utilization, double watermark,
                                    double queue_ms) const {
  const double util_exit = watermark - options_.exit_hysteresis;
  const double queue_exit = queue_ms * (1.0 - options_.exit_hysteresis);
  return utilization < util_exit && queue_ewma_ms_ < queue_exit;
}

OverloadRegime OverloadController::Update(size_t in_flight, size_t capacity) {
  if (!options_.enabled) return OverloadRegime::kNormal;
  const double utilization =
      capacity == 0 ? 0.0
                    : static_cast<double>(in_flight) /
                          static_cast<double>(capacity);
  const OverloadRegime target = Target(utilization);
  if (target > regime_) {
    // Escalate immediately: overload signals must act on *this* request.
    escalations_ +=
        static_cast<uint64_t>(target) - static_cast<uint64_t>(regime_);
    regime_ = target;
    return regime_;
  }
  // De-escalate at most one regime per update, and only once the signals
  // cleared the entry bar of the *current* regime by the hysteresis margin.
  if (regime_ == OverloadRegime::kShed &&
      ClearedFor(utilization, options_.shed_watermark,
                 options_.shed_queue_ms)) {
    regime_ = OverloadRegime::kDegrade;
  } else if (regime_ == OverloadRegime::kDegrade &&
             ClearedFor(utilization, options_.degrade_watermark,
                        options_.degrade_queue_ms)) {
    regime_ = OverloadRegime::kNormal;
  }
  return regime_;
}

}  // namespace ust
