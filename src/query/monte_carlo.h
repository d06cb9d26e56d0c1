// Monte-Carlo estimation of PNN probabilities (Section 5): sample W possible
// worlds from the objects' a-posteriori models, run the certain-trajectory
// NN kernel in each world, and average. The per-world per-tic indicator table
// is kept so that P∃NN, P∀NN, P∀kNN, P∃kNN and every PCNN validation reuse
// the same W worlds (one consistent sample of possible worlds per query).
#pragma once

#include <cstdint>
#include <vector>

#include "model/db_snapshot.h"
#include "query/nn_kernel.h"
#include "query/query.h"
#include "util/aligned.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/status.h"

namespace ust {

class ThreadPool;
class WorldArena;

/// Seed of participant `id`'s world-sampling stream under query seed `seed`.
/// Keyed by the object id — not by the participant's *position* in the list —
/// so the worlds an object realizes are a pure function of (seed, id): two
/// queries over different participant subsets still sample identical
/// trajectories for their common objects, which is what lets one shared
/// world arena (query/world_arena.h) serve any pruned subset bit-identically.
/// splitmix64 finalizer over seed + golden-ratio stride: consecutive ids and
/// seeds land on decorrelated xoshiro seedings.
inline uint64_t WorldStreamSeed(uint64_t seed, ObjectId id) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL *
                          (static_cast<uint64_t>(id) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// \brief Options of the Monte-Carlo engine.
struct MonteCarloOptions {
  size_t num_worlds = 1000;  ///< samples per query (paper default: 10000)
  int k = 1;                 ///< kNN parameter (Section 8)
  uint64_t seed = 42;        ///< RNG seed; same seed => same worlds
};

/// \brief How a Monte-Carlo refinement decides it has sampled enough.
enum class PrecisionMode {
  /// Legacy contract: always draw exactly num_worlds (the paper's a-priori
  /// Hoeffding sizing). The default — nothing changes unless asked for.
  kFixedWorlds = 0,
  /// Stop once every target's estimate is within +-epsilon at confidence
  /// 1 - delta (Wilson per target, Bonferroni-corrected; the distribution-
  /// free Hoeffding bound is checked too, so the stop count never exceeds
  /// the a-priori sizing rounded up to a chunk).
  kEpsilon,
  /// Stop once every target's Wilson interval clears the query threshold
  /// tau ("is P >= tau?" is decided even though P itself is still coarse) —
  /// the PCNN-style threshold mode, usually decided orders of magnitude
  /// before the Hoeffding count when probabilities sit far from tau.
  kThreshold,
};

/// \brief Per-query precision target of the adaptive Monte-Carlo executor
/// (query/adaptive.h). num_worlds stays the hard cap in every mode; stopping
/// is only ever checked at WorldSampler::kWorldChunk boundaries, so stop
/// decisions are a pure function of (snapshot, spec) — never of the thread
/// count or the lane/steal schedule that executed the query.
struct PrecisionTarget {
  PrecisionMode mode = PrecisionMode::kFixedWorlds;
  double epsilon = 0.01;  ///< absolute error target (kEpsilon)
  double delta = 0.05;    ///< failure probability (kEpsilon / kThreshold)
};

/// \brief The "is o a (k)NN of q at tic t in world w" table.
///
/// Storage is a real bitmap: one bit per (object, tic, world), laid out
/// [object][tic][world-word] so that the per-tic world vectors of one object
/// are contiguous 64-bit words. ForallProb/ExistsProb then reduce with
/// word-wide AND/OR plus popcount — 64 worlds per instruction instead of the
/// former byte-per-indicator scan, which dominated PCNN validation.
class NnTable {
 public:
  NnTable(std::vector<ObjectId> objects, TimeInterval T, size_t num_worlds)
      : objects_(std::move(objects)), interval_(T), num_worlds_(num_worlds),
        words_per_tic_((num_worlds + 63) / 64),
        bits_(objects_.size() * T.length() * words_per_tic_, 0) {
    BuildIndex();
  }

  const std::vector<ObjectId>& objects() const { return objects_; }
  const TimeInterval& interval() const { return interval_; }
  size_t num_worlds() const { return num_worlds_; }
  size_t words_per_tic() const { return words_per_tic_; }

  /// Index of `o` within objects(), or npos. O(log n) via the sorted index
  /// built at construction (objects() keeps the caller's order).
  size_t IndexOf(ObjectId o) const;
  static constexpr size_t npos = static_cast<size_t>(-1);

  bool IsNn(size_t obj_index, size_t world, Tic t) const {
    const uint64_t* w = TicWords(obj_index, RelTic(t));
    return (w[world >> 6] >> (world & 63)) & 1u;
  }

  /// Writable bitmap words from world `first_world` (a multiple of 64) on:
  /// the row of (objects()[i], rel tic r) starts at
  /// WordsAt(first_world) + (i * interval().length() + r) * words_per_tic().
  /// WorldSampler marks straight into these rows; writers of disjoint
  /// 64-aligned world ranges touch disjoint words, so shards may fill
  /// concurrently.
  uint64_t* WordsAt(size_t first_world) {
    UST_CHECK((first_world & 63) == 0 && first_world <= num_worlds_);
    return bits_.data() + first_world / 64;
  }

  /// Fraction of worlds where the object is NN at *every* tic of `tics`.
  /// `tics` must be a subset of the table interval.
  double ForallProb(size_t obj_index, const std::vector<Tic>& tics) const;

  /// Fraction of worlds where the object is NN at *some* tic of `tics`.
  double ExistsProb(size_t obj_index, const std::vector<Tic>& tics) const;

  /// Single-tic probability (P∀NN == P∃NN over one tic); allocation-free —
  /// hot-path replacement for ForallProb(i, {t}).
  double ProbAt(size_t obj_index, Tic t) const;

  /// P∀NN over the full table interval.
  double ForallProb(size_t obj_index) const;
  /// P∃NN over the full table interval.
  double ExistsProb(size_t obj_index) const;

 private:
  void BuildIndex();
  size_t RelTic(Tic t) const { return static_cast<size_t>(t - interval_.start); }
  const uint64_t* TicWords(size_t obj_index, size_t rel) const {
    UST_DCHECK(obj_index < objects_.size() &&
               rel < static_cast<size_t>(interval_.length()));
    return bits_.data() +
           (obj_index * interval_.length() + rel) * words_per_tic_;
  }
  /// AND (forall) or OR (exists) the per-tic world bitmaps of `tics`, then
  /// count the surviving worlds.
  double ReduceProb(size_t obj_index, const Tic* tics, size_t num_tics,
                    bool forall) const;

  std::vector<ObjectId> objects_;
  TimeInterval interval_;
  size_t num_worlds_;
  size_t words_per_tic_;
  // 32-byte-aligned so the SIMD word sweeps (util/simd.h) never straddle the
  // allocation: a 256-bit load starting inside the buffer stays inside it.
  AlignedVector<uint64_t> bits_;  // [object][rel tic][world word]
  /// (object id, position in objects_) sorted by id, for O(log n) IndexOf.
  std::vector<std::pair<ObjectId, uint32_t>> sorted_index_;
};

/// \brief Batched possible-world sampler: draws worlds (a trajectory per
/// participant, restricted to T) and marks which participants are (k)NNs of
/// q at each tic. ComputeNnTable and EstimatePnnAdaptive (query/adaptive.h)
/// share this machinery.
///
/// Worlds are evaluated in chunks of kWorldChunk, tic-major: every buffer of
/// a chunk is laid out [tic][world-in-chunk], so each step of the kernel is
/// a sweep over contiguous worlds. Per chunk:
///   1. each participant's drawn support indices (from its alias walk, or
///      read from a WorldArena slab row) are gathered into squared distances
///      to q — the per-slice distance tables are precomputed — and, for
///      k == 1, folded into the per-tic minimum (util/simd.h
///      GatherMinDistances);
///   2. for k > 1 the per-tic k-th smallest distance is selected;
///   3. each (participant, tic) row compares `d <= kth` over 64 worlds at a
///      time straight into one bitmap word (CompareLeMask).
/// The output is the NnTable word layout itself. Each participant owns a
/// forked RNG stream, so the sampled worlds are independent of the chunking
/// and of the participant interleaving.
///
/// Word outputs: a call marking `count` worlds writes, for every
/// participant i alive at rel tic r, words [0, ceil(count / 64)) of the row
/// at `words + (i * interval().length() + r) * words_per_tic`, world w of
/// the call at bit w % 64 of word w / 64; bits past `count` in the last word
/// are zero. Rows of (participant, tic) pairs outside the participant's
/// alive window are never written — callers hand in zeroed rows (NnTable
/// does). `words` must sit on a 64-world boundary of the caller's table.
///
/// The sampler itself is immutable: the stream position lives in a
/// caller-held vector of per-participant states. World w consumes exactly
/// one draw of each participant's stream, so InitialRngs + AdvanceWorlds
/// rebuild the state of any world index, and SampleWorlds continues from
/// whatever state it is handed. That is what lets a thread pool shard one
/// query's worlds across workers and still produce bit-identical tables
/// (DESIGN.md §4).
class WorldSampler {
 public:
  /// Per-shard scratch: the chunk's tic-major distance and index blocks and
  /// the per-tic k-th distances. One per worker thread; holds no stream
  /// state, so it is reused freely across calls and across samplers.
  struct Scratch {
    /// [participant window tic][world in chunk]; participant i's rows start
    /// at row doff_i (the sum of the earlier alive windows).
    std::vector<double> dist2;
    std::vector<double> kth;    // [rel tic][world in chunk]: k-th distance
    std::vector<double> kbest;  // k > 1: running k smallest, [j][world]
    /// Live sampling: drawn support indices, laid out like dist2.
    std::vector<uint32_t> draws;
    /// Per participant: its first support-index row of the chunk.
    std::vector<const uint32_t*> index_rows;
    /// Chunk-local word table of EstimatePnnAdaptive's serial path, which
    /// counts hits per chunk instead of keeping an NnTable.
    std::vector<uint64_t> words;
  };

  /// Validates inputs (including every sampling window), resolves the
  /// posterior models and warms their alias samplers.
  static Result<WorldSampler> Create(const DbSnapshot& db,
                                     std::vector<ObjectId> participants,
                                     const QueryTrajectory& q,
                                     const TimeInterval& T, int k,
                                     uint64_t seed);

  /// Per-participant stream states at world 0.
  std::vector<Rng> InitialRngs() const;

  /// Advance per-participant stream states by `worlds` worlds (one raw draw
  /// per world per stream — the per-world fork in the batch walk). Shards
  /// derive their start states this way: one serial O(W) prefix pass, then
  /// SampleWorlds per shard — bit-identical to one serial pass.
  static void AdvanceWorlds(std::vector<Rng>* rngs, size_t worlds);

  /// Sample `count` worlds from the stream states `*rngs` (one per
  /// participant, as built by InitialRngs + AdvanceWorlds) and mark them
  /// into `words` (class comment). `*rngs` is advanced in place past the
  /// sampled worlds, so consecutive calls on one vector continue the
  /// stream. Safe concurrently with distinct rngs, scratches and disjoint
  /// words.
  void SampleWorlds(std::vector<Rng>* rngs, size_t count, uint64_t* words,
                    size_t words_per_tic, Scratch* scratch) const;

  /// True when `arena` realizes every alive participant of this sampler over
  /// the exact sampling window (same interval, same seed-keyed streams are
  /// the arena's responsibility — this checks object coverage and windows).
  bool CoveredBy(const WorldArena& arena) const;

  /// Evaluate arena worlds [first_world, first_world + count) instead of
  /// sampling them, marking them as worlds [0, count) of `words`: the marks
  /// are bit-identical to SampleWorlds of the same worlds (the arena stores
  /// the very support indices the batch walk would have produced, and both
  /// feed the same kernel), but the alias-walk cost is gone. Requires
  /// CoveredBy(arena) and first_world + count <= arena.num_worlds(). Safe
  /// concurrently with distinct scratches and disjoint words.
  void EvalArenaWorlds(const WorldArena& arena, size_t first_world,
                       size_t count, uint64_t* words, size_t words_per_tic,
                       Scratch* scratch) const;

  size_t num_participants() const { return participants_.size(); }
  const std::vector<ObjectId>& participants() const { return participants_; }
  const TimeInterval& interval() const { return interval_; }

  /// Worlds per sampling chunk. Shard boundaries must be multiples of this
  /// (it is a multiple of 64, so packed-bitmap words never straddle shards).
  static constexpr size_t kWorldChunk = 512;
  /// Bitmap words of one full chunk.
  static constexpr size_t kChunkWords = kWorldChunk / 64;

 private:
  struct Participant {
    std::shared_ptr<const PosteriorModel> model;
    Tic ws, we;        // sampling window = alive span ∩ T
    bool alive;        // alive at some tic of T
    uint32_t rel0 = 0; // ws - T.start
    uint32_t wlen = 0; // window length in tics
    size_t doff = 0;   // first row of this participant's dist2/draws block
    Rng rng0{0};       // stream state at world 0 (never advanced)
    // Precomputed per-slice distances to q: dtab_[dbase + dtab_off[r] + j]
    // is the squared distance of support state j (slice ws + r) to q(ws+r).
    size_t dbase = 0;
    std::vector<uint32_t> dtab_off;  // size wlen + 1
  };

  /// The world-evaluation kernel of one chunk, shared by the sampling and
  /// the arena paths (identical words by construction). Participant i's
  /// support indices at window tic r are the `chunk` contiguous values at
  /// scratch->index_rows[i] + index_offset + r * index_stride. Marks the
  /// chunk's worlds as worlds [0, chunk) of `words`.
  void MarkChunk(size_t index_offset, size_t index_stride, size_t chunk,
                 uint64_t* words, size_t words_per_tic,
                 Scratch* scratch) const;

  /// k > 1: scratch->kth[rel] = the k-th smallest of the participants'
  /// distances at each tic (all of them when fewer than k are alive).
  void SelectKth(size_t chunk, Scratch* scratch) const;

  std::vector<ObjectId> participants_;
  std::vector<Participant> resolved_;
  QueryTrajectory q_ = QueryTrajectory::FromPoint({0, 0});
  TimeInterval interval_{0, 0};
  int k_ = 1;
  std::vector<Point2> qpts_;        // q.At per tic of T, hoisted
  size_t total_wlen_ = 0;           // sum of alive windows, per world
  std::vector<double> dtab_;        // support-state-to-q distance tables
};

/// \brief Sample `options.num_worlds` possible worlds over `participants` and
/// fill the NN indicator table.
///
/// Participants not alive at any tic of T are kept in the table but never
/// marked. Fails when a posterior model cannot be built (contradicting
/// observations) or T is invalid.
///
/// With a `pool`, world chunks are sharded across its workers; the table is
/// bit-identical at any thread count (chunk boundaries are fixed and every
/// shard starts from the stream state of its first world). `scratch` is
/// reused on the serial path (no pool, or num_worlds within one chunk), so a
/// session running many queries allocates the sampling scratch once per
/// worker lane; the sharded path allocates per-worker scratch internally.
/// nullptr uses a private local.
///
/// When `arena` is non-null, covers this query's (interval, seed,
/// num_worlds) and all alive participants, the worlds are *evaluated*
/// against the arena instead of sampled — same words, no alias walk — and
/// `*used_arena` (if given) is set to true. Otherwise the call samples live
/// and sets `*used_arena` to false; the table is identical either way.
Result<NnTable> ComputeNnTable(const DbSnapshot& db,
                               const std::vector<ObjectId>& participants,
                               const QueryTrajectory& q, const TimeInterval& T,
                               const MonteCarloOptions& options,
                               ThreadPool* pool = nullptr,
                               WorldSampler::Scratch* scratch = nullptr,
                               const WorldArena* arena = nullptr,
                               bool* used_arena = nullptr);

/// \brief Per-object probability estimates for the P∃NNQ / P∀NNQ queries.
struct PnnEstimate {
  ObjectId object;
  double forall_prob;
  double exists_prob;
};

/// \brief Estimate P∀NN and P∃NN for every object in `targets`, sampling
/// worlds over `participants` (targets ⊆ participants required). The
/// trailing arguments are ComputeNnTable's.
Result<std::vector<PnnEstimate>> EstimatePnn(
    const DbSnapshot& db, const std::vector<ObjectId>& participants,
    const std::vector<ObjectId>& targets, const QueryTrajectory& q,
    const TimeInterval& T, const MonteCarloOptions& options,
    ThreadPool* pool = nullptr, WorldSampler::Scratch* scratch = nullptr,
    const WorldArena* arena = nullptr, bool* used_arena = nullptr);

}  // namespace ust
