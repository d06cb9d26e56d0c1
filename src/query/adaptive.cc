#include "query/adaptive.h"

#include <algorithm>

#include "query/world_arena.h"
#include "util/check.h"
#include "util/simd.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace ust {

namespace {

// Indices of `targets` within `participants`; InvalidArgument when missing.
Result<std::vector<size_t>> ResolveTargets(
    const std::vector<ObjectId>& participants,
    const std::vector<ObjectId>& targets) {
  std::vector<size_t> indices;
  indices.reserve(targets.size());
  for (ObjectId t : targets) {
    auto it = std::find(participants.begin(), participants.end(), t);
    if (it == participants.end()) {
      return Status::InvalidArgument("target not among participants");
    }
    indices.push_back(static_cast<size_t>(it - participants.begin()));
  }
  return indices;
}

// Per-target forall/exists success counts, accumulated from marked world
// words (WorldSampler's layout): a target's worlds with the NN bit at every
// tic of the interval are an AND fold of its tic rows, at some tic an OR
// fold — 64 worlds per word, popcounted by the dispatched kernels.
struct TargetHits {
  TargetHits(const std::vector<size_t>& target_index, size_t interval_length)
      : target_index(target_index), len(interval_length),
        forall(target_index.size(), 0), exists(target_index.size(), 0),
        rows(interval_length) {}

  /// Adds `num_worlds` worlds marked from bit 0 on in the rows of `words`
  /// (bits past num_worlds in the last word are zero by contract).
  void Add(const uint64_t* words, size_t words_per_tic, size_t num_worlds) {
    const size_t num_words = (num_worlds + 63) / 64;
    for (size_t ti = 0; ti < target_index.size(); ++ti) {
      for (size_t r = 0; r < len; ++r) {
        rows[r] = words + (target_index[ti] * len + r) * words_per_tic;
      }
      forall[ti] += AndRowsPopcount(rows.data(), len, num_words);
      exists[ti] += OrRowsPopcount(rows.data(), len, num_words);
    }
  }

  size_t Of(PnnSemantics semantics, size_t ti) const {
    return semantics == PnnSemantics::kForall ? forall[ti] : exists[ti];
  }

  const std::vector<size_t>& target_index;
  size_t len;
  std::vector<size_t> forall;
  std::vector<size_t> exists;
  std::vector<const uint64_t*> rows;  // one target's per-tic rows
};

}  // namespace

Result<AdaptivePnnResult> EstimatePnnAdaptive(
    const DbSnapshot& db, const std::vector<ObjectId>& participants,
    const std::vector<ObjectId>& targets, const QueryTrajectory& q,
    const TimeInterval& T, PnnSemantics semantics, double tau,
    const MonteCarloOptions& mc, const PrecisionTarget& precision,
    ThreadPool* pool, WorldSampler::Scratch* scratch,
    const WorldArena* arena, bool* used_arena) {
  if (precision.mode == PrecisionMode::kFixedWorlds) {
    return Status::InvalidArgument(
        "adaptive estimator requires a non-fixed precision mode");
  }
  if (precision.delta <= 0.0 || precision.delta >= 1.0) {
    return Status::InvalidArgument("delta out of range");
  }
  if (precision.mode == PrecisionMode::kEpsilon && precision.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (precision.mode == PrecisionMode::kThreshold &&
      (tau < 0.0 || tau > 1.0)) {
    return Status::InvalidArgument("tau out of [0, 1]");
  }
  if (mc.num_worlds == 0) {
    return Status::InvalidArgument("num_worlds must be positive");
  }
  auto target_index = ResolveTargets(participants, targets);
  if (!target_index.ok()) return target_index.status();
  auto sampler = WorldSampler::Create(db, participants, q, T, mc.k, mc.seed);
  if (!sampler.ok()) return sampler.status();
  const WorldSampler& ws = sampler.value();

  const size_t cap = mc.num_worlds;
  constexpr size_t kChunk = WorldSampler::kWorldChunk;
  constexpr size_t kWords = WorldSampler::kChunkWords;
  // One chunk-local word table: the same kernel that fills NnTable marks
  // each chunk into it, then the targets' rows are popcounted.
  const size_t table_words = participants.size() * T.length() * kWords;

  // Arena coverage is checked against the *cap*: the prefix property of the
  // id-keyed streams means an arena holding num_worlds >= cap serves any
  // early-stopped prefix bit-identically (world w is always the w-th draw).
  const bool arena_ok = arena != nullptr &&
                        arena->Matches(T, mc.seed, cap) &&
                        ws.CoveredBy(*arena);
  if (used_arena != nullptr) *used_arena = arena_ok;

  const size_t num_targets = targets.size();
  const double per_target_delta =
      precision.delta / static_cast<double>(std::max<size_t>(1, num_targets));

  TargetHits hits(target_index.value(), T.length());
  AdaptivePnnResult result;
  result.estimates.resize(num_targets);
  std::vector<char> decided(num_targets, 0);
  size_t undecided = num_targets;

  // The stopping rule at prefix boundary `worlds`. Reads only the prefix hit
  // counts, so the decision is a pure function of (db, spec) — the
  // determinism contract of DESIGN.md section 8. Decisions are sticky: a
  // target decided at one boundary freezes its estimates there and is never
  // re-examined, so later chunks cannot flip an already-published decision.
  auto check_stop = [&](size_t worlds) {
    if (precision.mode == PrecisionMode::kThreshold) {
      for (size_t ti = 0; ti < num_targets; ++ti) {
        if (decided[ti]) continue;
        const size_t h = hits.Of(semantics, ti);
        Interval ci = WilsonInterval(h, worlds, per_target_delta);
        if (ci.lo >= tau || ci.hi < tau) {
          decided[ti] = 1;
          --undecided;
          const double w = static_cast<double>(worlds);
          // Wilson brackets the point estimate (lo <= p̂ <= hi), so the
          // frozen estimate agrees with the interval decision under any
          // downstream `p >= tau` filter.
          result.estimates[ti] = {
              targets[ti], static_cast<double>(hits.forall[ti]) / w,
              static_cast<double>(hits.exists[ti]) / w};
        }
      }
      return undecided == 0;
    }
    // kEpsilon: the distribution-free Hoeffding bound caps the stop count at
    // the a-priori sizing rounded up to a chunk; the per-target Wilson
    // half-width stops far earlier when probabilities sit near 0 or 1.
    if (HoeffdingEpsilon(worlds, precision.delta) <= precision.epsilon) {
      return true;
    }
    for (size_t ti = 0; ti < num_targets; ++ti) {
      const size_t h = hits.Of(semantics, ti);
      Interval ci = WilsonInterval(h, worlds, per_target_delta);
      if (ci.hi - ci.lo > 2.0 * precision.epsilon) return false;
    }
    return true;
  };

  const size_t num_chunks = (cap + kChunk - 1) / kChunk;
  size_t worlds = 0;
  bool stopped = false;

  WorldSampler::Scratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  // Live sampling's stream state at the next unsampled world.
  std::vector<Rng> cursor;
  if (!arena_ok) cursor = ws.InitialRngs();

  const int workers = pool != nullptr ? pool->num_threads() : 1;
  if (workers > 1 && num_chunks > 1) {
    // Speculative waves: sample up to one chunk per worker concurrently,
    // then accumulate and check boundaries serially *in chunk order*.
    // Chunks past the stop boundary are discarded unaccumulated, so the
    // published estimates and the stop count match the serial path exactly.
    // The first wave is a single chunk — easy queries stop right there and
    // never pay for speculation.
    const size_t wave_cap = static_cast<size_t>(workers);
    std::vector<WorldSampler::Scratch> scratches(wave_cap);
    std::vector<std::vector<uint64_t>> bufs(
        wave_cap, std::vector<uint64_t>(table_words, 0));
    std::vector<std::vector<Rng>> starts(wave_cap);
    size_t c = 0;
    size_t wave_size = 1;
    while (c < num_chunks && !stopped) {
      const size_t wave_chunks = std::min(wave_size, num_chunks - c);
      if (!arena_ok) {
        // One serial O(W) RNG prefix pass, exactly as the fixed-count
        // sharded path derives its chunk starts.
        for (size_t j = 0; j < wave_chunks; ++j) {
          starts[j] = cursor;
          const size_t w0 = (c + j) * kChunk;
          const size_t n = std::min(kChunk, cap - w0);
          if (c + j + 1 < num_chunks) WorldSampler::AdvanceWorlds(&cursor, n);
        }
      }
      pool->ParallelFor(wave_chunks, [&](size_t j, int) {
        const size_t w0 = (c + j) * kChunk;
        const size_t n = std::min(kChunk, cap - w0);
        if (arena_ok) {
          ws.EvalArenaWorlds(*arena, w0, n, bufs[j].data(), kWords,
                             &scratches[j]);
        } else {
          ws.SampleWorlds(&starts[j], n, bufs[j].data(), kWords,
                          &scratches[j]);
        }
      });
      for (size_t j = 0; j < wave_chunks && !stopped; ++j) {
        const size_t w0 = (c + j) * kChunk;
        const size_t n = std::min(kChunk, cap - w0);
        hits.Add(bufs[j].data(), kWords, n);
        worlds = w0 + n;
        stopped = check_stop(worlds);
      }
      c += wave_chunks;
      wave_size = wave_cap;
    }
  } else {
    // Rows a participant's window never reaches stay zero; every written
    // row is rewritten by each chunk, and a partial last chunk is counted
    // over its own words only.
    std::vector<uint64_t>& words = scratch->words;
    words.assign(table_words, 0);
    for (size_t w0 = 0; w0 < cap && !stopped; w0 += kChunk) {
      const size_t n = std::min(kChunk, cap - w0);
      if (arena_ok) {
        ws.EvalArenaWorlds(*arena, w0, n, words.data(), kWords, scratch);
      } else {
        ws.SampleWorlds(&cursor, n, words.data(), kWords, scratch);
      }
      hits.Add(words.data(), kWords, n);
      worlds = w0 + n;
      stopped = check_stop(worlds);
    }
  }

  // Estimates not frozen by a threshold decision read the stop boundary:
  // epsilon-mode targets, and threshold targets still straddling tau at the
  // cap (their qualification falls back to the point estimate, flagged via
  // `undecided`).
  const double w = static_cast<double>(worlds);
  for (size_t ti = 0; ti < num_targets; ++ti) {
    if (precision.mode == PrecisionMode::kThreshold && decided[ti]) continue;
    result.estimates[ti] = {targets[ti],
                            static_cast<double>(hits.forall[ti]) / w,
                            static_cast<double>(hits.exists[ti]) / w};
  }
  result.worlds_used = worlds;
  result.early_stopped = stopped && worlds < cap;
  result.undecided =
      precision.mode == PrecisionMode::kThreshold ? undecided : 0;
  return result;
}

}  // namespace ust
