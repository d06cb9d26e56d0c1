// The plan-based batched query pipeline (Section 3.3 industrialized):
//
//   QuerySession  — owns immutable shared state (a database's posteriors
//                   with warmed alias samplers, the UST-tree, cached
//                   per-interval index slabs) plus reusable per-worker
//                   scratch, so back-to-back queries stop paying allocation
//                   and warm-up costs;
//   planner       — picks the refinement backend per query from the pruning
//                   output (query/executor.h);
//   RunAll        — evaluates a batch, sharding across queries and across
//                   world chunks within a query over a thread pool.
//
// Determinism contract: a query's result is a pure function of the database
// contents and its QuerySpec (seed included). Run vs RunAll, 1 vs N threads,
// and batch order never change a single bit of the output — worker scratch
// carries no cross-query state, world shards re-derive their RNG positions
// from world indices, and per-query outputs occupy disjoint slots.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "index/ust_delta.h"
#include "index/ust_tree.h"
#include "model/trajectory_database.h"
#include "query/executor.h"
#include "query/monte_carlo.h"
#include "query/pcnn.h"
#include "query/query.h"
#include "query/world_arena.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ust {

/// \brief Cross-session tally of world-arena activity (Counter instruments:
/// sessions are driven concurrently by serving-tier lanes). The serving tier
/// owns one, injects it via SessionOptions, and registers the instruments
/// with its MetricRegistry so they self-enumerate as arena_builds /
/// arena_spec_reuses / arena_bytes.
struct ArenaCounters {
  Counter builds;       ///< arenas materialized
  Counter spec_reuses;  ///< specs evaluated against an arena
  Counter bytes;        ///< slab bytes across built arenas
};

/// \brief Plain snapshot of one session's own arena activity.
struct ArenaStats {
  uint64_t builds = 0;
  uint64_t spec_reuses = 0;
  uint64_t bytes = 0;
};

/// \brief One qualifying object with its estimated probability.
struct PnnResultEntry {
  ObjectId object;
  double prob;
};

/// \brief Result of a P∃NNQ / P∀NNQ evaluation plus work statistics.
struct PnnQueryResult {
  std::vector<PnnResultEntry> results;  ///< objects with prob >= tau
  size_t num_candidates = 0;            ///< |C(q)| after pruning
  size_t num_influencers = 0;           ///< |I(q)| after pruning
  double prune_millis = 0.0;
  double sampling_millis = 0.0;
};

/// \brief PCNNQ result plus work statistics.
struct PcnnQueryResult {
  PcnnResult pcnn;
  size_t num_candidates = 0;
  size_t num_influencers = 0;
  double prune_millis = 0.0;
  double sampling_millis = 0.0;
};

/// \brief One query of a batch: semantics, reference trajectory, interval,
/// threshold, precision knobs, and an optional backend override.
struct QuerySpec {
  QueryKind kind = QueryKind::kForall;
  QueryTrajectory q = QueryTrajectory::FromPoint({0, 0});
  TimeInterval T{0, 0};
  double tau = 0.0;
  MonteCarloOptions mc;  ///< num_worlds (precision cap), k, seed
  /// Adaptive-precision target (query/monte_carlo.h): kFixedWorlds (the
  /// default) always samples mc.num_worlds; kEpsilon / kThreshold stop at
  /// the first 512-world chunk boundary where the target is met —
  /// deterministically, at any thread count or lane schedule. Continuous
  /// (PCNN) queries ignore it: Algorithm 1 validates timestamp sets against
  /// the full shared world table.
  PrecisionTarget precision;
  /// Explicit executor override; kAuto defers to the planner.
  ExecutorKind backend = ExecutorKind::kAuto;
  /// Latency budget relative to serving-tier admission, milliseconds; 0 = no
  /// deadline. The session itself ignores it — only the serving tier sheds
  /// expired specs, and only at request/morsel boundaries, so a spec that
  /// does execute is bit-identical at any deadline (DESIGN.md section 11).
  double deadline_ms = 0.0;
  /// Load-shedding class: under overload the serving tier rejects requests
  /// at or below its priority floor first. Does not affect execution order
  /// or results of admitted requests.
  int priority = 0;
};

/// The largest mc.num_worlds a spec may ask for. A world table costs
/// participants × |T| × num_worlds bits, so an unbounded count either
/// exhausts memory or wraps the table's word count; 2^20 is far above what
/// a Hoeffding sizing needs (18 445 worlds for epsilon 0.01 at delta 0.05).
inline constexpr size_t kMaxQueryWorlds = size_t{1} << 20;

/// \brief Reject a spec no backend can evaluate: k < 1, a reversed interval
/// (T.start > T.end), a tau that is NaN or outside [0, 1], mc.num_worlds
/// == 0 or above kMaxQueryWorlds, a deadline_ms that is NaN or outside
/// [0, 1e12], or — unless the precision mode is kFixedWorlds — an epsilon or
/// delta that is NaN or outside (0, 1). kInvalidArgument names the first offending field;
/// OK otherwise. QueryServer::Submit applies it at admission and
/// QuerySession to every spec before pruning or planning, so client input
/// can never reach a backend's assertions.
Status ValidateSpec(const QuerySpec& spec);

/// \brief Per-query outcome. `status` isolates failures: one malformed query
/// does not abort the batch.
struct QueryOutcome {
  Status status;
  QueryKind kind = QueryKind::kForall;
  /// Backend that actually refined the query (after planning + fallback).
  ExecutorKind executor = ExecutorKind::kMonteCarlo;
  /// Whether the worlds were evaluated against the session's shared arena
  /// instead of sampled live. Purely observational: outcomes are
  /// bit-identical either way (the arena determinism contract).
  bool used_arena = false;
  /// Worlds the Monte-Carlo backend actually drew (mc.num_worlds on the
  /// fixed path, the chunk-aligned stop count on the adaptive path; 0 for
  /// the non-sampling backends and pruned-empty queries).
  size_t worlds_used = 0;
  /// The adaptive stopping rule fired before the num_worlds cap.
  bool early_stopped = false;
  PnnQueryResult pnn;    ///< kForall / kExists
  PcnnQueryResult pcnn;  ///< kContinuous
};

/// \brief Session-level knobs.
struct SessionOptions {
  /// Worker count for RunAll batches, per-query world sharding, and
  /// Prepare's parallel posterior adaptation. 1 = fully serial.
  int threads = 1;
  PlannerOptions planner;
  /// Shared world arena policy: build the arena of a (interval, seed) group
  /// once this many Monte-Carlo specs have hit it. 0 disables arenas
  /// entirely; 1 builds on first use (benches, tests); the default 2 means
  /// a group pays the build only once it has proven hot — a stream of
  /// unique (interval, seed) keys never regresses.
  int arena_min_uses = 2;
  /// Optional external tally (the serving tier's SessionCache injects one
  /// shared across its sessions); may be nullptr. The session also keeps
  /// its own ArenaStats either way.
  ArenaCounters* arena_counters = nullptr;
  /// Patch a stale index with an UstDelta over the change log instead of
  /// dropping it (bit-identical outcomes either way). false pins the legacy
  /// drop-to-fallback behavior.
  bool delta_index = true;
  /// Optional tally of stale indexes this session had to drop (no delta
  /// possible or delta build failed); may be nullptr.
  Counter* stale_index_drops = nullptr;
};

/// \brief Long-lived query façade over one database epoch + UST-tree.
///
/// The session pins a DbSnapshot at construction (a live TrajectoryDatabase
/// converts to its current epoch): every query it ever runs reads exactly
/// that epoch, bit-identically, regardless of concurrent writes to the live
/// database. An `index` built over an *older* epoch is patched with an
/// UstDelta covering the objects written since (probed alongside the base
/// tree, bit-identical to a rebuild); when that is impossible — delta layer
/// disabled, the change log was trimmed past the base, or the delta build
/// failed — the index is dropped and counted (pruning degenerates to
/// alive-time filtering, which is always correct).
///
/// Not safe for concurrent external use (one session = one request lane);
/// internally it parallelizes over its own pool.
class QuerySession {
 public:
  /// \brief Reusable per-lane scratch for morsel execution (`RunMorsel`):
  /// the world-sampler buffers. A serving-tier lane owns one and reuses it
  /// across every morsel, group and session it executes — scratch is
  /// session-portable by construction (it holds no stream state).
  using ExecScratch = WorldSampler::Scratch;

  explicit QuerySession(DbSnapshot db, const UstTree* index = nullptr,
                        SessionOptions options = {});

  /// Build the shared immutable artifacts once: adapts every posterior (one
  /// PropagateWorkspace per worker, objects sharded over the pool) and warms
  /// every alias sampler. Idempotent. Only RunAll batches that shard across
  /// queries (threads > 1 and more than one spec) call it implicitly — Run
  /// and serial batches stay lazy, resolving just their own participants —
  /// so call Prepare() up front to warm the whole database explicitly.
  Status Prepare();

  /// Evaluate one query, reusing session scratch.
  QueryOutcome Run(const QuerySpec& spec);

  /// Evaluate a batch: queries are sharded across the pool; a lone query
  /// instead shards its world chunks. outcome[i] corresponds to specs[i] and
  /// is bit-identical to Run(specs[i]) at any thread count.
  std::vector<QueryOutcome> RunAll(const std::vector<QuerySpec>& specs);

  /// Pre-build the index slab for `T` (no-op without an index), so a cached
  /// session starts warm for its keyed interval — the serving tier calls
  /// this once at insert instead of paying the R*-tree walk on the first
  /// request. Results are unaffected either way.
  void WarmInterval(const TimeInterval& T);

  /// Morsel execution for the serving tier (DESIGN.md section 5.6):
  /// evaluate specs[i] into outcomes[i] for every i in [begin, end), using
  /// only caller-owned resources — `pool` (may be nullptr: serial) shards
  /// each query's world chunks, `scratch` holds the sampling buffers.
  ///
  /// Unlike Run/RunAll this path is safe to call *concurrently* from
  /// several lanes on one shared session: it reads exclusively immutable
  /// session state (the snapshot, the index, already-cached slabs) and
  /// never touches the session's own pool, scratch lanes or slab cache.
  /// The caller must hold a shared lease contract: the session is
  /// Prepare()d (every posterior warm or deterministically failing, so no
  /// lane ever cold-writes shared caches) and intervals were warmed via
  /// WarmInterval (a missing slab is still correct — pruning traverses the
  /// R*-tree directly — just slower). Outcomes are bit-identical to
  /// Run(specs[i]) at any pool size, so any morsel partition of a batch
  /// reassembles the exact serial RunAll bytes.
  void RunMorsel(const std::vector<QuerySpec>& specs, size_t begin,
                 size_t end, QueryOutcome* outcomes, ThreadPool* pool,
                 ExecScratch* scratch) const;

  const SessionOptions& options() const { return options_; }
  const DbSnapshot& db() const { return db_; }
  ThreadPool& pool() { return pool_; }

  /// Snapshot of this session's own arena activity (thread-safe).
  ArenaStats arena_stats() const;

  /// Objects the attached delta carries (0 = probing the base alone).
  size_t delta_depth() const { return delta_.depth(); }

  /// A stale index was passed at construction and had to be dropped.
  bool dropped_stale_index() const { return dropped_stale_index_; }

 private:
  /// Pruning (filter step), via the index slab when one is cached for T;
  /// without an index, degenerates to alive-time filtering.
  PruneResult Prune(const QueryTrajectory& q, const TimeInterval& T, int k,
                    bool forall, const UstTree::TimeSlab* slab) const;

  /// Cached slab lookup; inserts on miss. Not thread-safe — called only
  /// from the serial sections (Run, RunAll's prebuild pass). Pointers stay
  /// valid until the next batch entry (TrimSlabCache).
  const UstTree::TimeSlab* SlabFor(const TimeInterval& T);

  /// Read-only slab lookup (never inserts): the morsel path's accessor,
  /// safe concurrently with other readers as long as nobody mutates the
  /// cache — the shared-lease contract of RunMorsel.
  const UstTree::TimeSlab* FindSlab(const TimeInterval& T) const;

  /// Evict the slab cache when it outgrew its bound; batch-entry only.
  void TrimSlabCache();

  /// Expected world count of an *adaptive* spec with cap `cap`: the frozen
  /// difficulty fraction scaled onto the cap, rounded up to a chunk and
  /// clamped to [min(cap, kWorldChunk), cap]. The planner's cost input
  /// (DESIGN.md section 8) — fixed-mode specs never go through this.
  size_t ExpectedWorlds(size_t cap) const;

  /// Feed one adaptive Monte-Carlo outcome into the difficulty EWMA. Called
  /// ONLY from the exclusive entry point Run() — never from RunAll workers
  /// or the const morsel path — so the fraction sequence is deterministic
  /// at any thread count, and the serving tier (which only ever calls
  /// RunAll/RunMorsel) plans with the frozen initial fraction regardless of
  /// its lane/steal schedule.
  void NoteAdaptiveOutcome(const QuerySpec& spec, const QueryOutcome& out);

  /// The per-query execution core: pure reads of session state plus writes
  /// to the caller's scratch and outcome — const so the shared-lease morsel
  /// path can prove it touches nothing a concurrent lane could race on.
  QueryOutcome RunOne(const QuerySpec& spec, const UstTree::TimeSlab* slab,
                      ThreadPool* world_pool, ExecScratch* scratch) const;
  void RunPnn(const QuerySpec& spec, const UstTree::TimeSlab* slab,
              ThreadPool* world_pool, ExecScratch* scratch,
              QueryOutcome* out) const;
  void RunContinuous(const QuerySpec& spec, const UstTree::TimeSlab* slab,
                     ThreadPool* world_pool, ExecScratch* scratch,
                     QueryOutcome* out) const;

  /// One (interval, seed) arena group and its build state. `building` is
  /// the non-blocking in-flight marker: while a build runs outside the
  /// lock, concurrent callers get nullptr and sample live — still
  /// bit-identical, just not yet amortized.
  struct ArenaSlot {
    TimeInterval T{0, 0};
    uint64_t seed = 0;
    size_t max_worlds = 0;  ///< largest num_worlds requested so far
    uint32_t uses = 0;      ///< Monte-Carlo specs seen for this key
    bool building = false;
    std::shared_ptr<const WorldArena> arena;
  };

  /// The shared arena serving (T, seed, num_worlds), building it (on the
  /// calling thread, `pool`-sharded) once the group reached arena_min_uses.
  /// Returns nullptr while cold, disabled, or mid-build by another lane.
  /// Thread-safe (the morsel path calls it concurrently); the returned
  /// shared_ptr keeps the arena alive past any cache trim or session churn.
  std::shared_ptr<const WorldArena> ArenaFor(const TimeInterval& T,
                                             uint64_t seed, size_t num_worlds,
                                             ThreadPool* pool) const;

  /// Tally one spec evaluated against an arena (own stats + injected).
  void NoteArenaUse() const;

  DbSnapshot db_;
  const UstTree* index_;
  /// Patch for a base index older than db_'s epoch; empty when the index is
  /// current (or absent). Probed by Prune alongside the base tree.
  UstDelta delta_;
  bool dropped_stale_index_ = false;
  SessionOptions options_;
  ThreadPool pool_;
  std::vector<ExecScratch> scratch_;  // one per worker
  /// Slab cache; unique_ptr keeps handed-out slab pointers stable as the
  /// cache grows.
  std::vector<std::unique_ptr<UstTree::TimeSlab>> slabs_;
  bool prepared_ = false;
  Status prepare_status_;
  /// Arena groups; mutable because arenas are a cache — RunMorsel is const
  /// and concurrent, so access is serialized by arena_mu_ (builds happen
  /// outside the lock; see ArenaFor).
  mutable std::mutex arena_mu_;
  mutable std::vector<ArenaSlot> arena_slots_;
  mutable ArenaCounters own_arena_counters_;
  /// Observed difficulty of this session's adaptive queries: EWMA of
  /// worlds_used / num_worlds, starting at 1.0 (assume worst case until
  /// evidence). Written only by NoteAdaptiveOutcome (exclusive Run path).
  double difficulty_ewma_ = 1.0;
  /// The fraction the planner reads (ExpectedWorlds). Atomic because the
  /// const morsel path loads it concurrently; stores happen only on the
  /// exclusive Run path, so readers always see a value frozen before their
  /// batch — plans stay a pure function of (spec, frozen fraction).
  std::atomic<double> planner_fraction_{1.0};
};

}  // namespace ust
