#include "query/session.h"

#include <algorithm>
#include <cmath>

#include "util/fault.h"
#include "util/timer.h"
#include "util/trace.h"

namespace ust {

namespace {

// Union of two id sets (inputs need not be sorted).
std::vector<ObjectId> UnionIds(std::vector<ObjectId> a,
                               const std::vector<ObjectId>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

}  // namespace

QuerySession::QuerySession(DbSnapshot db, const UstTree* index,
                           SessionOptions options)
    : db_(std::move(db)), index_(index), options_(options),
      pool_(options.threads),
      scratch_(static_cast<size_t>(pool_.num_threads())) {
  // An index over another epoch prunes against the wrong object set. Patch
  // the gap with a delta over the change log when possible; otherwise drop
  // the index rather than serve wrong results (alive-time filtering stays
  // correct) — and make the drop observable.
  if (index_ != nullptr && index_->built_version() != db_.version()) {
    bool patched = false;
    if (options_.delta_index && index_->built_version() < db_.version() &&
        db_.delta_floor() <= index_->built_version()) {
      auto delta = UstDelta::Build(db_, index_->built_version());
      if (delta.ok()) {
        delta_ = delta.MoveValue();
        patched = true;
      }
    }
    if (!patched) {
      index_ = nullptr;
      dropped_stale_index_ = true;
      trace::Instant("stale_index_drop", db_.version(), "epoch", "dropped");
      if (options_.stale_index_drops != nullptr) {
        options_.stale_index_drops->Increment();
      }
    }
  }
}

Status QuerySession::Prepare() {
  if (prepared_) return prepare_status_;
  prepared_ = true;
  // TS phase: adapt every posterior (sharded, one workspace per worker),
  // then warm every alias sampler. After this no query mutates shared state,
  // which is what makes the parallel paths race-free.
  prepare_status_ = db_.EnsureAllPosteriors(&pool_);
  if (!prepare_status_.ok()) return prepare_status_;
  pool_.ParallelFor(db_.size(), [&](size_t i, int) {
    auto posterior = db_.object(static_cast<ObjectId>(i)).Posterior();
    if (posterior.ok()) posterior.value()->EnsureSamplers();
  });
  return prepare_status_;
}

PruneResult QuerySession::Prune(const QueryTrajectory& q, const TimeInterval& T,
                                int k, bool forall,
                                const UstTree::TimeSlab* slab) const {
  if (index_ != nullptr) {
    if (!delta_.empty()) {
      UST_TRACE_SCOPE("delta_probe", delta_.depth(), "objects");
      return forall ? index_->PruneForall(q, T, k, slab, &delta_)
                    : index_->PruneExists(q, T, k, slab, &delta_);
    }
    return forall ? index_->PruneForall(q, T, k, slab)
                  : index_->PruneExists(q, T, k, slab);
  }
  PruneResult result;
  result.influencers = db_.AliveSometime(T.start, T.end);
  result.candidates =
      forall ? db_.AliveThroughout(T.start, T.end) : result.influencers;
  return result;
}

const UstTree::TimeSlab* QuerySession::SlabFor(const TimeInterval& T) {
  if (index_ == nullptr) return nullptr;
  for (const auto& slab : slabs_) {
    if (slab->T == T) return slab.get();
  }
  slabs_.push_back(
      std::make_unique<UstTree::TimeSlab>(index_->MakeTimeSlab(T)));
  return slabs_.back().get();
}

const UstTree::TimeSlab* QuerySession::FindSlab(const TimeInterval& T) const {
  if (index_ == nullptr) return nullptr;
  for (const auto& slab : slabs_) {
    if (slab->T == T) return slab.get();
  }
  return nullptr;
}

void QuerySession::WarmInterval(const TimeInterval& T) {
  TrimSlabCache();
  (void)SlabFor(T);
}

void QuerySession::TrimSlabCache() {
  // Bound the cache: a long-lived session over ever-changing intervals must
  // not grow without limit. Trimming only at batch entry — never from
  // SlabFor — keeps every pointer handed out during a batch valid, even
  // when one batch spans more than kMaxCachedSlabs distinct intervals.
  constexpr size_t kMaxCachedSlabs = 64;
  if (slabs_.size() >= kMaxCachedSlabs) slabs_.clear();
}

QueryOutcome QuerySession::Run(const QuerySpec& spec) {
  // Single-query path: stays lazy (posteriors of the participants resolve on
  // first use) and serial within the caller's thread; the session pool only
  // shards world chunks.
  TrimSlabCache();
  QueryOutcome out = RunOne(spec, SlabFor(spec.T), &pool_, &scratch_[0]);
  NoteAdaptiveOutcome(spec, out);
  return out;
}

size_t QuerySession::ExpectedWorlds(size_t cap) const {
  constexpr size_t kChunk = WorldSampler::kWorldChunk;
  const double fraction = planner_fraction_.load(std::memory_order_relaxed);
  // Round the scaled cap up to a chunk boundary (stops only land there) and
  // never predict below one chunk — the adaptive path always samples at
  // least min(cap, kChunk) worlds.
  const double scaled = fraction * static_cast<double>(cap);
  size_t expected = static_cast<size_t>(
                        std::ceil(scaled / static_cast<double>(kChunk))) *
                    kChunk;
  expected = std::max(expected, std::min(cap, kChunk));
  return std::min(expected, cap);
}

void QuerySession::NoteAdaptiveOutcome(const QuerySpec& spec,
                                       const QueryOutcome& out) {
  if (spec.precision.mode == PrecisionMode::kFixedWorlds) return;
  if (!out.status.ok() || out.executor != ExecutorKind::kMonteCarlo ||
      out.kind == QueryKind::kContinuous || spec.mc.num_worlds == 0 ||
      out.worlds_used == 0) {
    return;
  }
  // EWMA over the observed stop fractions: alpha 0.3 adapts within a handful
  // of queries yet smooths over one unusually hard (or easy) outlier.
  constexpr double kAlpha = 0.3;
  const double fraction = static_cast<double>(out.worlds_used) /
                          static_cast<double>(spec.mc.num_worlds);
  difficulty_ewma_ = (1.0 - kAlpha) * difficulty_ewma_ + kAlpha * fraction;
  planner_fraction_.store(difficulty_ewma_, std::memory_order_relaxed);
}

std::vector<QueryOutcome> QuerySession::RunAll(
    const std::vector<QuerySpec>& specs) {
  std::vector<QueryOutcome> outcomes(specs.size());
  if (specs.empty()) return outcomes;
  // Cross-query sharding shares the posterior and sampler caches, so they
  // must be sealed first. A 1-thread pool — or a lone query, which takes
  // the world-sharded path where WorldSampler::Create resolves its own
  // participants serially before any shard runs — can stay lazy like Run.
  // If sealing fails (one bad object anywhere in the database, possibly
  // unrelated to this batch), degrade to the serial lazy path instead of
  // failing the batch: per-query outcomes must match Run() bit for bit.
  bool share_across_queries = pool_.num_threads() > 1 && specs.size() > 1;
  if (share_across_queries && !Prepare().ok()) share_across_queries = false;
  // Index slabs are built serially up front (the cache is not locked).
  TrimSlabCache();
  std::vector<const UstTree::TimeSlab*> slabs(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) slabs[i] = SlabFor(specs[i].T);
  if (share_across_queries) {
    // Shard across queries: each worker owns its scratch lane, each query
    // writes its own outcome slot — schedule-independent by construction.
    pool_.ParallelFor(specs.size(), [&](size_t i, int worker) {
      outcomes[i] =
          RunOne(specs[i], slabs[i], /*world_pool=*/nullptr,
                 &scratch_[static_cast<size_t>(worker)]);
    });
  } else {
    // Serial batch (or a lone query): shard world chunks instead.
    for (size_t i = 0; i < specs.size(); ++i) {
      outcomes[i] = RunOne(specs[i], slabs[i], &pool_, &scratch_[0]);
    }
  }
  return outcomes;
}

ArenaStats QuerySession::arena_stats() const {
  ArenaStats s;
  s.builds = own_arena_counters_.builds.value();
  s.spec_reuses = own_arena_counters_.spec_reuses.value();
  s.bytes = own_arena_counters_.bytes.value();
  return s;
}

void QuerySession::NoteArenaUse() const {
  own_arena_counters_.spec_reuses.Increment();
  if (options_.arena_counters != nullptr) {
    options_.arena_counters->spec_reuses.Increment();
  }
}

std::shared_ptr<const WorldArena> QuerySession::ArenaFor(
    const TimeInterval& T, uint64_t seed, size_t num_worlds,
    ThreadPool* pool) const {
  if (options_.arena_min_uses <= 0 || !T.valid() || num_worlds == 0) {
    return nullptr;
  }
  if (fault::ShouldFail("alloc_limit")) {
    // Injected allocation refusal: behave as if the slab could not be
    // materialized — specs sample live, bit-identically, just unamortized.
    return nullptr;
  }
  size_t build_worlds = 0;
  {
    std::lock_guard<std::mutex> lock(arena_mu_);
    ArenaSlot* slot = nullptr;
    for (ArenaSlot& s : arena_slots_) {
      if (s.T.start == T.start && s.T.end == T.end && s.seed == seed) {
        slot = &s;
        break;
      }
    }
    if (slot == nullptr) {
      // Bound the group list: drop idle (non-building) groups front-first.
      // Handed-out arenas survive any trim — callers hold shared_ptrs.
      constexpr size_t kMaxArenaSlots = 16;
      if (arena_slots_.size() >= kMaxArenaSlots) {
        for (auto it = arena_slots_.begin(); it != arena_slots_.end();) {
          if (!it->building && arena_slots_.size() >= kMaxArenaSlots) {
            it = arena_slots_.erase(it);
          } else {
            ++it;
          }
        }
      }
      arena_slots_.push_back(ArenaSlot{T, seed, 0, 0, false, nullptr});
      slot = &arena_slots_.back();
    }
    slot->uses += 1;
    slot->max_worlds = std::max(slot->max_worlds, num_worlds);
    if (slot->arena != nullptr) return slot->arena;
    if (slot->building ||
        slot->uses < static_cast<uint32_t>(options_.arena_min_uses)) {
      return nullptr;  // cold, or another lane is building: sample live
    }
    slot->building = true;
    build_worlds = slot->max_worlds;
  }
  // Build outside the lock: sampling the whole group must not serialize the
  // other lanes (they sample live meanwhile — same bytes, the contract).
  // The group superset is everything alive within T: pruning only ever
  // yields subsets of it, so the arena covers any spec of the group.
  Result<WorldArena> built = [&] {
    UST_TRACE_SCOPE("arena_build", static_cast<uint64_t>(build_worlds),
                    "worlds");
    return WorldArena::Build(db_, db_.AliveSometime(T.start, T.end), T, seed,
                             build_worlds, pool);
  }();
  std::lock_guard<std::mutex> lock(arena_mu_);
  // Re-find by key: the slot vector may have been trimmed or reallocated
  // while we sampled.
  for (ArenaSlot& s : arena_slots_) {
    if (s.T.start == T.start && s.T.end == T.end && s.seed == seed) {
      s.building = false;
      if (!built.ok()) return nullptr;  // group unbuildable: stay live
      s.arena = std::make_shared<const WorldArena>(built.MoveValue());
      own_arena_counters_.builds.Increment();
      own_arena_counters_.bytes.Increment(s.arena->bytes());
      if (options_.arena_counters != nullptr) {
        options_.arena_counters->builds.Increment();
        options_.arena_counters->bytes.Increment(s.arena->bytes());
      }
      return s.arena;
    }
  }
  return nullptr;  // slot trimmed mid-build: drop the arena
}

void QuerySession::RunMorsel(const std::vector<QuerySpec>& specs,
                             size_t begin, size_t end, QueryOutcome* outcomes,
                             ThreadPool* pool, ExecScratch* scratch) const {
  // A missing slab (an interval never warmed) degrades to a direct R*-tree
  // traversal inside Prune — a pure read, identical pruning output. Every
  // other input of RunOne is immutable session state or caller-owned, so
  // concurrent morsels of one shared session never touch common bytes.
  for (size_t i = begin; i < end && i < specs.size(); ++i) {
    outcomes[i] = RunOne(specs[i], FindSlab(specs[i].T), pool, scratch);
  }
}

Status ValidateSpec(const QuerySpec& spec) {
  // Every backend assumes k >= 1 (the exact kernel asserts it).
  if (spec.mc.k < 1) return Status::InvalidArgument("k must be >= 1");
  // A reversed interval wraps T.length() into a huge size_t.
  if (!spec.T.valid()) {
    return Status::InvalidArgument("query interval has start > end");
  }
  // The negated range tests reject NaN too.
  if (!(spec.tau >= 0.0 && spec.tau <= 1.0)) {
    return Status::InvalidArgument("tau must lie in [0, 1]");
  }
  // Zero worlds would divide 0/0 into a NaN probability answered OK.
  if (spec.mc.num_worlds == 0) {
    return Status::InvalidArgument("num_worlds must be >= 1");
  }
  if (spec.mc.num_worlds > kMaxQueryWorlds) {
    return Status::InvalidArgument("num_worlds must be <= 2^20");
  }
  // The serving tier adds the budget to a nanosecond steady_clock; NaN,
  // negative and unrepresentable budgets (beyond ~31 years) are refused.
  if (!(spec.deadline_ms >= 0.0 && spec.deadline_ms <= 1e12)) {
    return Status::InvalidArgument("deadline_ms must lie in [0, 1e12]");
  }
  if (spec.precision.mode != PrecisionMode::kFixedWorlds) {
    if (!(spec.precision.epsilon > 0.0 && spec.precision.epsilon < 1.0)) {
      return Status::InvalidArgument("epsilon must lie in (0, 1)");
    }
    if (!(spec.precision.delta > 0.0 && spec.precision.delta < 1.0)) {
      return Status::InvalidArgument("delta must lie in (0, 1)");
    }
  }
  return Status::OK();
}

QueryOutcome QuerySession::RunOne(const QuerySpec& spec,
                                  const UstTree::TimeSlab* slab,
                                  ThreadPool* world_pool,
                                  ExecScratch* scratch) const {
  QueryOutcome out;
  out.kind = spec.kind;
  // Reject malformed client input here, before pruning or planning can
  // route it to a backend that assumes it away.
  out.status = ValidateSpec(spec);
  if (!out.status.ok()) return out;
  if (spec.kind == QueryKind::kContinuous) {
    RunContinuous(spec, slab, world_pool, scratch, &out);
  } else {
    RunPnn(spec, slab, world_pool, scratch, &out);
  }
  return out;
}

void QuerySession::RunPnn(const QuerySpec& spec, const UstTree::TimeSlab* slab,
                          ThreadPool* world_pool, ExecScratch* scratch,
                          QueryOutcome* out) const {
  const bool forall = spec.kind == QueryKind::kForall;
  Timer prune_timer;
  PruneResult pruned = Prune(spec.q, spec.T, spec.mc.k, forall, slab);
  out->pnn.prune_millis = prune_timer.Millis();
  out->pnn.num_candidates = pruned.candidates.size();
  out->pnn.num_influencers = pruned.influencers.size();
  if (pruned.candidates.empty()) return;

  Timer sample_timer;
  // P∀NN must account for every influencer; candidates outside the
  // influencer set (possible without an index) still need their own worlds.
  std::vector<ObjectId> participants =
      forall ? UnionIds(pruned.candidates, pruned.influencers)
             : pruned.influencers;
  PnnTask task;
  task.db = &db_;
  task.participants = &participants;
  task.targets = &pruned.candidates;
  task.q = &spec.q;
  task.T = spec.T;
  task.mc = spec.mc;
  task.precision = spec.precision;
  task.kind = spec.kind;
  task.tau = spec.tau;

  // An explicit override — per query or session-wide — is a user decision:
  // honoring it with a different backend would be silent data substitution,
  // so unsupported/overflowing forced backends error instead of degrading.
  const bool forced = spec.backend != ExecutorKind::kAuto ||
                      options_.planner.force != ExecutorKind::kAuto;
  ExecutorKind choice = spec.backend;
  if (choice == ExecutorKind::kAuto) {
    // Adaptive specs are costed at their *expected* world count (the
    // session's difficulty EWMA scaled onto the cap), not the worst-case
    // cap: a stream of easy early-stopping queries shifts the exact/MC
    // crossover toward sampling, because sampling got genuinely cheaper.
    const size_t plan_worlds =
        spec.precision.mode == PrecisionMode::kFixedWorlds
            ? spec.mc.num_worlds
            : ExpectedWorlds(spec.mc.num_worlds);
    choice = PlanExecutor(spec.kind, pruned.candidates.size(),
                          participants.size(), spec.T.length(),
                          plan_worlds, spec.mc.k, options_.planner);
  }
  if (!GetExecutor(choice).Supports(spec.kind, task)) {
    if (forced) {
      out->status = Status::InvalidArgument(
          std::string("executor '") + ExecutorKindName(choice) +
          "' does not support this query");
      return;
    }
    choice = ExecutorKind::kMonteCarlo;  // planner misfire: degrade gracefully
  }
  ExecContext ctx;
  ctx.pool = world_pool;
  ctx.sampler_scratch = scratch;
  ctx.worlds_used = &out->worlds_used;
  ctx.early_stopped = &out->early_stopped;
  // Monte-Carlo specs consult the session's shared arena; the shared_ptr
  // keeps it alive for the whole estimate even if the cache trims it.
  std::shared_ptr<const WorldArena> arena;
  bool used_arena = false;
  if (choice == ExecutorKind::kMonteCarlo) {
    arena = ArenaFor(spec.T, spec.mc.seed, spec.mc.num_worlds, world_pool);
    ctx.arena = arena.get();
    ctx.arena_used = &used_arena;
  }
  auto estimates = GetExecutor(choice).Estimate(task, ctx);
  if (!estimates.ok() && choice == ExecutorKind::kExact && !forced &&
      estimates.status().code() == StatusCode::kResourceLimit) {
    // The planner under-estimated the enumeration cross product (it only
    // sees set sizes, not per-object world counts): fall back to sampling.
    choice = ExecutorKind::kMonteCarlo;
    arena = ArenaFor(spec.T, spec.mc.seed, spec.mc.num_worlds, world_pool);
    ctx.arena = arena.get();
    ctx.arena_used = &used_arena;
    estimates = GetExecutor(choice).Estimate(task, ctx);
  }
  if (!estimates.ok()) {
    out->status = estimates.status();
    return;
  }
  out->executor = choice;
  out->used_arena = used_arena;
  if (used_arena) NoteArenaUse();
  for (const PnnEstimate& e : estimates.value()) {
    const double p = forall ? e.forall_prob : e.exists_prob;
    if (p >= spec.tau) out->pnn.results.push_back({e.object, p});
  }
  out->pnn.sampling_millis = sample_timer.Millis();
}

void QuerySession::RunContinuous(const QuerySpec& spec,
                                 const UstTree::TimeSlab* slab,
                                 ThreadPool* world_pool, ExecScratch* scratch,
                                 QueryOutcome* out) const {
  // Algorithm 1 validates timestamp sets against one shared world sample,
  // which only the Monte-Carlo table provides — so a forced non-MC backend
  // is an error here, same contract as RunPnn.
  const ExecutorKind forced_backend = spec.backend != ExecutorKind::kAuto
                                          ? spec.backend
                                          : options_.planner.force;
  if (forced_backend != ExecutorKind::kAuto &&
      forced_backend != ExecutorKind::kMonteCarlo) {
    out->status = Status::InvalidArgument(
        std::string("executor '") + ExecutorKindName(forced_backend) +
        "' does not support continuous queries");
    return;
  }
  Timer prune_timer;
  // Any object that can be NN at some tic can hold a singleton result set,
  // so PCNN candidates are the P∃NN candidates.
  PruneResult pruned = Prune(spec.q, spec.T, spec.mc.k, /*forall=*/false, slab);
  out->pcnn.prune_millis = prune_timer.Millis();
  out->pcnn.num_candidates = pruned.candidates.size();
  out->pcnn.num_influencers = pruned.influencers.size();
  if (pruned.candidates.empty()) return;

  Timer sample_timer;
  out->executor = ExecutorKind::kMonteCarlo;
  std::shared_ptr<const WorldArena> arena =
      ArenaFor(spec.T, spec.mc.seed, spec.mc.num_worlds, world_pool);
  bool used_arena = false;
  auto table = ComputeNnTable(db_, pruned.influencers, spec.q, spec.T,
                              spec.mc, world_pool, scratch, arena.get(),
                              &used_arena);
  if (!table.ok()) {
    out->status = table.status();
    return;
  }
  out->used_arena = used_arena;
  // PCNN ignores any precision target: Algorithm 1 validates timestamp sets
  // against the one shared world table, which must be complete.
  out->worlds_used = spec.mc.num_worlds;
  if (used_arena) NoteArenaUse();
  auto pcnn = PcnnOnTable(table.value(), pruned.candidates, spec.tau);
  if (!pcnn.ok()) {
    out->status = pcnn.status();
    return;
  }
  out->pcnn.pcnn = pcnn.MoveValue();
  out->pcnn.sampling_millis = sample_timer.Millis();
}

}  // namespace ust
