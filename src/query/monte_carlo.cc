#include "query/monte_carlo.h"

#include <algorithm>
#include <limits>

#include "query/world_arena.h"
#include "util/check.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace ust {

namespace {

/// Gather per-tic word-row pointers for the SIMD row folds. Tic counts are
/// tiny (interval lengths); a 64-pointer stack array covers every practical
/// query, with a heap fallback keeping the contract unconditional.
struct RowPtrs {
  const uint64_t* stack[64];
  std::vector<const uint64_t*> heap;
  const uint64_t** Get(size_t n) {
    if (n <= 64) return stack;
    heap.resize(n);
    return heap.data();
  }
};

}  // namespace

void NnTable::BuildIndex() {
  sorted_index_.reserve(objects_.size());
  for (size_t i = 0; i < objects_.size(); ++i) {
    sorted_index_.push_back({objects_[i], static_cast<uint32_t>(i)});
  }
  std::sort(sorted_index_.begin(), sorted_index_.end());
}

size_t NnTable::IndexOf(ObjectId o) const {
  auto it = std::lower_bound(
      sorted_index_.begin(), sorted_index_.end(), o,
      [](const std::pair<ObjectId, uint32_t>& e, ObjectId v) {
        return e.first < v;
      });
  if (it != sorted_index_.end() && it->first == o) return it->second;
  return npos;
}

double NnTable::ReduceProb(size_t obj_index, const Tic* tics, size_t num_tics,
                           bool forall) const {
  UST_CHECK(obj_index < objects_.size());
  if (num_worlds_ == 0) return 0.0;
  if (num_tics == 0) return forall ? 1.0 : 0.0;  // vacuous truth / falsity
  RowPtrs ptrs;
  const uint64_t** rows = ptrs.Get(num_tics);
  for (size_t ti = 0; ti < num_tics; ++ti) {
    UST_DCHECK(interval_.Contains(tics[ti]));
    rows[ti] = TicWords(obj_index, RelTic(tics[ti]));
  }
  // Dispatched word sweep (util/simd.h): popcount sums are integers, so
  // every dispatch level returns the same count — and thus the same double.
  const uint64_t count =
      forall ? AndRowsPopcount(rows, num_tics, words_per_tic_)
             : OrRowsPopcount(rows, num_tics, words_per_tic_);
  return static_cast<double>(count) / static_cast<double>(num_worlds_);
}

double NnTable::ForallProb(size_t obj_index,
                           const std::vector<Tic>& tics) const {
  return ReduceProb(obj_index, tics.data(), tics.size(), /*forall=*/true);
}

double NnTable::ExistsProb(size_t obj_index,
                           const std::vector<Tic>& tics) const {
  return ReduceProb(obj_index, tics.data(), tics.size(), /*forall=*/false);
}

double NnTable::ProbAt(size_t obj_index, Tic t) const {
  UST_CHECK(obj_index < objects_.size());
  UST_DCHECK(interval_.Contains(t));
  if (num_worlds_ == 0) return 0.0;
  const uint64_t count =
      PopcountWords(TicWords(obj_index, RelTic(t)), words_per_tic_);
  return static_cast<double>(count) / static_cast<double>(num_worlds_);
}

double NnTable::ForallProb(size_t obj_index) const {
  UST_CHECK(obj_index < objects_.size());
  if (num_worlds_ == 0) return 0.0;
  const size_t len = interval_.length();
  RowPtrs ptrs;
  const uint64_t** rows = ptrs.Get(len);
  for (size_t rel = 0; rel < len; ++rel) {
    rows[rel] = TicWords(obj_index, rel);
  }
  const uint64_t count = AndRowsPopcount(rows, len, words_per_tic_);
  return static_cast<double>(count) / static_cast<double>(num_worlds_);
}

double NnTable::ExistsProb(size_t obj_index) const {
  UST_CHECK(obj_index < objects_.size());
  if (num_worlds_ == 0) return 0.0;
  const size_t len = interval_.length();
  RowPtrs ptrs;
  const uint64_t** rows = ptrs.Get(len);
  for (size_t rel = 0; rel < len; ++rel) {
    rows[rel] = TicWords(obj_index, rel);
  }
  const uint64_t count = OrRowsPopcount(rows, len, words_per_tic_);
  return static_cast<double>(count) / static_cast<double>(num_worlds_);
}

Result<WorldSampler> WorldSampler::Create(const DbSnapshot& db,
                                          std::vector<ObjectId> participants,
                                          const QueryTrajectory& q,
                                          const TimeInterval& T, int k,
                                          uint64_t seed) {
  if (!T.valid()) return Status::InvalidArgument("empty query interval");
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  for (Tic t = T.start; t <= T.end; ++t) {
    if (!q.Covers(t)) {
      return Status::InvalidArgument(
          "query trajectory does not cover the query interval");
    }
  }
  WorldSampler sampler;
  sampler.participants_ = std::move(participants);
  sampler.q_ = q;
  sampler.interval_ = T;
  sampler.k_ = k;
  sampler.qpts_.reserve(T.length());
  for (Tic t = T.start; t <= T.end; ++t) sampler.qpts_.push_back(q.At(t));
  sampler.resolved_.reserve(sampler.participants_.size());
  for (ObjectId id : sampler.participants_) {
    const UncertainObject& obj = db.object(id);
    auto posterior = obj.Posterior();
    if (!posterior.ok()) return posterior.status();
    Participant p;
    p.model = posterior.value();
    p.ws = std::max(T.start, p.model->first_tic());
    p.we = std::min(T.end, p.model->last_tic());
    p.alive = p.ws <= p.we;
    // Id-keyed stream, not a positional fork: an object's worlds depend only
    // on (seed, id), never on which other participants the query kept, so a
    // shared arena over a superset serves any pruned subset bit-identically.
    p.rng0 = Rng(WorldStreamSeed(seed, id));
    if (p.alive) {
      // Validate the window once and warm the alias samplers here, so world
      // sampling is pure array lookups.
      UST_CHECK(p.model->CoversWindow(p.ws, p.we));
      p.model->EnsureSamplers();
      p.rel0 = static_cast<uint32_t>(p.ws - T.start);
      p.wlen = static_cast<uint32_t>(p.we - p.ws) + 1;
      p.doff = sampler.total_wlen_;
      sampler.total_wlen_ += p.wlen;
      // Precompute the support-state-to-q distances of every window slice:
      // one pass per query replaces a coord lookup per sampled state.
      p.dbase = sampler.dtab_.size();
      p.dtab_off.resize(p.wlen + 1);
      uint32_t cum = 0;
      for (uint32_t r = 0; r < p.wlen; ++r) {
        const PosteriorModel::Slice& slice =
            p.model->SliceAt(p.ws + static_cast<Tic>(r));
        p.dtab_off[r] = cum;
        const Point2& qt = sampler.qpts_[p.rel0 + r];
        for (StateId s : slice.support) {
          sampler.dtab_.push_back(SquaredDistance(db.space().coord(s), qt));
        }
        cum += static_cast<uint32_t>(slice.support.size());
      }
      p.dtab_off[p.wlen] = cum;
    }
    sampler.resolved_.push_back(std::move(p));
  }
  return sampler;
}

std::vector<Rng> WorldSampler::InitialRngs() const {
  std::vector<Rng> rngs;
  rngs.reserve(resolved_.size());
  for (const Participant& p : resolved_) rngs.push_back(p.rng0);
  return rngs;
}

void WorldSampler::AdvanceWorlds(std::vector<Rng>* rngs, size_t worlds) {
  // One Fork (== one parent draw) is consumed per world, so advancing a
  // stream by `worlds` raw draws reproduces the serial state at that world.
  for (Rng& r : *rngs) {
    for (size_t w = 0; w < worlds; ++w) (void)r();
  }
}

void WorldSampler::SampleWorlds(std::vector<Rng>* rngs, size_t count,
                                uint64_t* words, size_t words_per_tic,
                                Scratch* scratch) const {
  const size_t n = resolved_.size();
  UST_CHECK(rngs->size() == n);
  scratch->index_rows.resize(n);
  for (size_t w0 = 0; w0 < count; w0 += kWorldChunk) {
    const size_t chunk = std::min(kWorldChunk, count - w0);
    scratch->draws.resize(total_wlen_ * chunk);
    // Participant-major alias walks: one participant's tables stay hot
    // across the whole chunk and the batch sampler keeps several walks in
    // flight. The drawn support indices land tic-major — the layout of an
    // arena slab — so the live and arena paths share MarkChunk.
    for (size_t i = 0; i < n; ++i) {
      const Participant& p = resolved_[i];
      if (!p.alive) continue;
      uint32_t* draws = scratch->draws.data() + p.doff * chunk;
      p.model->SampleWindowBatchVisit(
          p.ws, p.we, chunk, (*rngs)[i],
          [draws, chunk](size_t w, size_t rel, uint32_t local, StateId) {
            draws[rel * chunk + w] = local;
          });
      scratch->index_rows[i] = draws;
    }
    MarkChunk(0, chunk, chunk, words + w0 / 64, words_per_tic, scratch);
  }
}

void WorldSampler::MarkChunk(size_t index_offset, size_t index_stride,
                             size_t chunk, uint64_t* words,
                             size_t words_per_tic, Scratch* scratch) const {
  const size_t n = resolved_.size();
  const size_t len = interval_.length();
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double>& dist2 = scratch->dist2;
  std::vector<double>& kth = scratch->kth;
  dist2.resize(total_wlen_ * chunk);
  kth.resize(len * chunk);
  if (k_ == 1) std::fill(kth.begin(), kth.end(), kInf);
  // Phase 1: gather each (participant, tic) row of distances over the
  // chunk's contiguous worlds; k == 1 folds the per-tic minimum in the same
  // sweep while the row is in registers.
  for (size_t i = 0; i < n; ++i) {
    const Participant& p = resolved_[i];
    if (!p.alive) continue;
    const double* dtab = dtab_.data() + p.dbase;
    const uint32_t* indices = scratch->index_rows[i] + index_offset;
    for (uint32_t r = 0; r < p.wlen; ++r) {
      GatherMinDistances(dtab + p.dtab_off[r], indices + r * index_stride,
                         chunk, dist2.data() + (p.doff + r) * chunk,
                         k_ == 1 ? kth.data() + (p.rel0 + r) * chunk
                                 : nullptr);
    }
  }
  if (k_ != 1) SelectKth(chunk, scratch);
  // Phase 2: compare every (participant, tic) row against the tic's k-th
  // distance, 64 worlds per bitmap word, straight into the caller's table.
  for (size_t i = 0; i < n; ++i) {
    const Participant& p = resolved_[i];
    if (!p.alive) continue;
    for (uint32_t r = 0; r < p.wlen; ++r) {
      CompareLeMask(dist2.data() + (p.doff + r) * chunk,
                    kth.data() + (p.rel0 + r) * chunk, chunk,
                    words + (i * len + p.rel0 + r) * words_per_tic);
    }
  }
}

void WorldSampler::SelectKth(size_t chunk, Scratch* scratch) const {
  const size_t len = interval_.length();
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double>& kbest = scratch->kbest;
  for (size_t rel = 0; rel < len; ++rel) {
    auto alive_at = [rel](const Participant& p) {
      return p.alive && rel >= p.rel0 && rel < p.rel0 + p.wlen;
    };
    const size_t alive = static_cast<size_t>(
        std::count_if(resolved_.begin(), resolved_.end(), alive_at));
    if (alive == 0) continue;  // nobody to mark at this tic
    // With fewer than k alive every one of them is a kNN: the k-th distance
    // is then their maximum (the largest of the kk smallest).
    const size_t kk = std::min<size_t>(static_cast<size_t>(k_), alive);
    kbest.assign(kk * chunk, kInf);
    // Sorted insertion per world: kbest[j * chunk + w] is world w's
    // (j+1)-th smallest distance so far. The k-th smallest of a multiset is
    // one value whatever the selection method, so the marks do not depend
    // on how it is selected.
    for (const Participant& p : resolved_) {
      if (!alive_at(p)) continue;
      const double* d =
          scratch->dist2.data() + (p.doff + rel - p.rel0) * chunk;
      for (size_t w = 0; w < chunk; ++w) {
        double v = d[w];
        for (size_t j = 0; j < kk; ++j) {
          double& b = kbest[j * chunk + w];
          const double lo = std::min(b, v);
          v = std::max(b, v);
          b = lo;
        }
      }
    }
    std::copy(kbest.begin() + (kk - 1) * chunk, kbest.begin() + kk * chunk,
              scratch->kth.begin() + rel * chunk);
  }
}

bool WorldSampler::CoveredBy(const WorldArena& arena) const {
  for (size_t i = 0; i < resolved_.size(); ++i) {
    const Participant& p = resolved_[i];
    if (!p.alive) continue;  // never sampled, nothing to cover
    const WorldArena::Entry* e = arena.Find(participants_[i]);
    if (e == nullptr || e->ws != p.ws || e->we != p.we) return false;
  }
  return true;
}

void WorldSampler::EvalArenaWorlds(const WorldArena& arena, size_t first_world,
                                   size_t count, uint64_t* words,
                                   size_t words_per_tic,
                                   Scratch* scratch) const {
  UST_CHECK(first_world + count <= arena.num_worlds());
  const size_t n = resolved_.size();
  std::vector<const uint32_t*>& rows = scratch->index_rows;
  rows.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Participant& p = resolved_[i];
    if (!p.alive) continue;
    const WorldArena::Entry* e = arena.Find(participants_[i]);
    UST_CHECK(e != nullptr && e->ws == p.ws && e->we == p.we);
    rows[i] = arena.slab(*e);
  }
  // Same chunk structure as SampleWorlds with the alias walk replaced by slab
  // rows: the slab holds the exact support indices the walk would have
  // produced, tic-major with a row stride of the arena's world count, and
  // MarkChunk is shared — so the words are bit-identical to sampling these
  // worlds live.
  for (size_t w0 = 0; w0 < count; w0 += kWorldChunk) {
    const size_t chunk = std::min(kWorldChunk, count - w0);
    MarkChunk(first_world + w0, arena.num_worlds(), chunk, words + w0 / 64,
              words_per_tic, scratch);
  }
}

Result<NnTable> ComputeNnTable(const DbSnapshot& db,
                               const std::vector<ObjectId>& participants,
                               const QueryTrajectory& q, const TimeInterval& T,
                               const MonteCarloOptions& options,
                               ThreadPool* pool,
                               WorldSampler::Scratch* scratch,
                               const WorldArena* arena, bool* used_arena) {
  auto sampler =
      WorldSampler::Create(db, participants, q, T, options.k, options.seed);
  if (!sampler.ok()) return sampler.status();
  const WorldSampler& ws = sampler.value();
  NnTable table(participants, T, options.num_worlds);
  const size_t wpt = table.words_per_tic();
  const bool arena_ok = arena != nullptr &&
                        arena->Matches(T, options.seed, options.num_worlds) &&
                        ws.CoveredBy(*arena);
  if (used_arena != nullptr) *used_arena = arena_ok;
  WorldSampler::Scratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  const bool sharded = pool != nullptr && pool->num_threads() > 1 &&
                       options.num_worlds > WorldSampler::kWorldChunk;
  if (arena_ok) {
    if (sharded) {
      // Evaluation needs no RNG prefix pass: any world range reads its
      // slab rows directly, so sharding is embarrassingly parallel and
      // still bit-identical (disjoint 64-aligned words, as below).
      std::vector<WorldSampler::Scratch> scratches(pool->num_threads());
      pool->ParallelForChunked(
          options.num_worlds, WorldSampler::kWorldChunk,
          [&](size_t begin, size_t end, int worker) {
            ws.EvalArenaWorlds(*arena, begin, end - begin,
                               table.WordsAt(begin), wpt,
                               &scratches[worker]);
          });
    } else {
      ws.EvalArenaWorlds(*arena, 0, options.num_worlds, table.WordsAt(0),
                         wpt, scratch);
    }
    return table;
  }
  if (sharded) {
    // Shard world chunks across the pool. Chunk boundaries are fixed
    // (multiples of kWorldChunk, itself a multiple of 64), shards mark
    // disjoint bitmap words, and every chunk starts from an RNG state
    // precomputed by one serial O(W) prefix pass below — so the table is
    // bit-identical to serial at any thread count, without each shard
    // replaying the stream from world 0 (which would be O(W²) overall).
    const size_t num_chunks =
        (options.num_worlds + WorldSampler::kWorldChunk - 1) /
        WorldSampler::kWorldChunk;
    std::vector<std::vector<Rng>> chunk_rngs(num_chunks);
    std::vector<Rng> cursor = ws.InitialRngs();
    for (size_t c = 0; c < num_chunks; ++c) {
      chunk_rngs[c] = cursor;
      if (c + 1 < num_chunks) {
        WorldSampler::AdvanceWorlds(&cursor, WorldSampler::kWorldChunk);
      }
    }
    std::vector<WorldSampler::Scratch> scratches(pool->num_threads());
    pool->ParallelForChunked(
        options.num_worlds, WorldSampler::kWorldChunk,
        [&](size_t begin, size_t end, int worker) {
          ws.SampleWorlds(&chunk_rngs[begin / WorldSampler::kWorldChunk],
                          end - begin, table.WordsAt(begin), wpt,
                          &scratches[worker]);
        });
  } else {
    // Serial: one stream vector carries across chunks (no repositioning).
    std::vector<Rng> rngs = ws.InitialRngs();
    ws.SampleWorlds(&rngs, options.num_worlds, table.WordsAt(0), wpt,
                    scratch);
  }
  return table;
}

Result<std::vector<PnnEstimate>> EstimatePnn(
    const DbSnapshot& db, const std::vector<ObjectId>& participants,
    const std::vector<ObjectId>& targets, const QueryTrajectory& q,
    const TimeInterval& T, const MonteCarloOptions& options, ThreadPool* pool,
    WorldSampler::Scratch* scratch, const WorldArena* arena,
    bool* used_arena) {
  auto table_result = ComputeNnTable(db, participants, q, T, options, pool,
                                     scratch, arena, used_arena);
  if (!table_result.ok()) return table_result.status();
  const NnTable& table = table_result.value();
  std::vector<PnnEstimate> estimates;
  estimates.reserve(targets.size());
  for (ObjectId o : targets) {
    size_t idx = table.IndexOf(o);
    if (idx == NnTable::npos) {
      return Status::InvalidArgument("target not among participants");
    }
    estimates.push_back({o, table.ForallProb(idx), table.ExistsProb(idx)});
  }
  return estimates;
}

}  // namespace ust
