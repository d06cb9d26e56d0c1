// Sequential (adaptive) Monte-Carlo estimation. The paper sizes its sample
// count a priori with Hoeffding's inequality [29]; sequential sampling goes
// further: it draws worlds in batches and stops as soon as the estimates are
// provably good enough, which for threshold queries (P >= tau) is usually
// orders of magnitude earlier than the worst-case Hoeffding count —
// probabilities far from tau are decided after a few hundred worlds.
//
// Two tiers live here:
//   * the standalone sequential estimators (EstimatePnnSequential /
//     DecideThresholdSequential) — the original sketch, kept as the simple
//     reference implementation over a DbSnapshot;
//   * EstimatePnnAdaptive — the production entry point the Monte-Carlo
//     executor (query/executor.cc) routes to when a QuerySpec carries a
//     non-fixed PrecisionTarget. It is chunk-deterministic, pool-sharded
//     and arena-aware (DESIGN.md section 8).
#pragma once

#include <cstdint>
#include <vector>

#include "model/db_snapshot.h"
#include "query/monte_carlo.h"
#include "query/query.h"
#include "util/status.h"

namespace ust {

class ThreadPool;
class WorldArena;

/// \brief Which probability a threshold decision is about.
enum class PnnSemantics {
  kForall,  ///< P∀NN (Definition 2)
  kExists,  ///< P∃NN (Definition 1)
};

/// \brief Stopping parameters of the sequential estimators.
///
/// Invariant: `batch_size` defaults to WorldSampler::kWorldChunk and must be
/// a multiple of it whenever results are compared against the executor tier —
/// the executor checks stopping conditions only at 512-world chunk
/// boundaries (the sampler's sharding granule), so a stop decision is a pure
/// function of (snapshot, spec) and lands on the same world count at any
/// thread count or lane schedule. A batch size off the chunk grid is still
/// statistically valid for the standalone estimators, but its stop counts
/// are not comparable with the production pipeline's.
struct SequentialOptions {
  double epsilon = 0.01;       ///< absolute error target (estimate variant)
  double delta = 0.05;         ///< failure probability
  size_t batch_size = WorldSampler::kWorldChunk;  ///< worlds per stop check
  size_t max_worlds = 1 << 20; ///< hard cap
  int k = 1;                   ///< kNN parameter
  uint64_t seed = 42;
};

/// \brief Estimates with the achieved (Hoeffding) error bound.
struct SequentialPnnResult {
  std::vector<PnnEstimate> estimates;
  size_t worlds_used = 0;
  double epsilon_achieved = 0.0;  ///< two-sided bound at confidence 1-delta
};

/// \brief Sample until the Hoeffding bound reaches `options.epsilon` (or
/// max_worlds). Equivalent in distribution to EstimatePnn with the matching
/// world count, but self-sizing.
Result<SequentialPnnResult> EstimatePnnSequential(
    const DbSnapshot& db, const std::vector<ObjectId>& participants,
    const std::vector<ObjectId>& targets, const QueryTrajectory& q,
    const TimeInterval& T, const SequentialOptions& options);

/// \brief Per-object outcome of a sequential threshold query.
struct ThresholdDecision {
  ObjectId object;
  bool qualifies;      ///< estimate of [P >= tau] (exact when decided)
  bool decided;        ///< confidence interval cleared tau before max_worlds
  double estimate;     ///< point estimate of the probability
  size_t worlds_used;  ///< worlds drawn when this object was decided
};

struct ThresholdQueryResult {
  std::vector<ThresholdDecision> decisions;
  size_t worlds_used = 0;  ///< total worlds drawn
};

/// \brief Decide `P(o) >= tau` per target with Wilson confidence intervals
/// (confidence 1 - delta, Bonferroni-corrected across targets): an object is
/// decided once its interval lies entirely above or below tau. Undecided
/// objects (probability ~ tau) fall back to the point estimate at
/// max_worlds with decided = false.
Result<ThresholdQueryResult> DecideThresholdSequential(
    const DbSnapshot& db, const std::vector<ObjectId>& participants,
    const std::vector<ObjectId>& targets, const QueryTrajectory& q,
    const TimeInterval& T, double tau, PnnSemantics semantics,
    const SequentialOptions& options);

/// \brief Result of the production adaptive estimator.
struct AdaptivePnnResult {
  /// Per-target estimates, in target order. In threshold mode the estimates
  /// of a decided target are *frozen* at its decision boundary: the Wilson
  /// interval brackets the point estimate (lo <= p̂ <= hi), so the frozen
  /// estimate passes or fails a `p >= tau` filter exactly as the interval
  /// decision dictates — downstream threshold filters and the CI decisions
  /// can never disagree.
  std::vector<PnnEstimate> estimates;
  size_t worlds_used = 0;    ///< chunk-aligned stop count (<= mc.num_worlds)
  bool early_stopped = false;  ///< stopped before the num_worlds cap
  /// Threshold mode: targets still straddling tau at the cap (their
  /// estimates are point estimates at the cap, not interval decisions).
  size_t undecided = 0;
};

/// \brief The executor-tier adaptive estimator: sample worlds in
/// WorldSampler::kWorldChunk chunks, check the PrecisionTarget's stopping
/// rule at every chunk boundary *in prefix order*, and stop at the first
/// boundary where every target is decided (kThreshold) or every estimate is
/// within epsilon (kEpsilon). `mc.num_worlds` is the hard cap.
///
/// Determinism: worlds are the same id-keyed streams ComputeNnTable draws,
/// chunk boundaries are fixed, and the stopping rule only reads prefix
/// hit counts — so the stop count and every estimate are a pure function of
/// (db, spec), at any `pool` size. A pool samples chunks ahead
/// speculatively (waves of one chunk per worker); chunks past the stop
/// boundary are discarded unaccumulated.
///
/// When `arena` covers (T, seed, num_worlds) and every alive participant,
/// chunks are *evaluated* against the arena prefix instead of sampled —
/// bit-identical marks, so identical stop decisions — and `*used_arena` is
/// set. The arena prefix property makes an arena built for N worlds serve
/// any early-stopped prefix <= N. `precision.mode` must not be kFixedWorlds
/// (that is ComputeNnTable's job).
Result<AdaptivePnnResult> EstimatePnnAdaptive(
    const DbSnapshot& db, const std::vector<ObjectId>& participants,
    const std::vector<ObjectId>& targets, const QueryTrajectory& q,
    const TimeInterval& T, PnnSemantics semantics, double tau,
    const MonteCarloOptions& mc, const PrecisionTarget& precision,
    ThreadPool* pool, WorldSampler::Scratch* scratch,
    const WorldArena* arena = nullptr, bool* used_arena = nullptr);

}  // namespace ust
