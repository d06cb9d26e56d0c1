#include "query/world_arena.h"

#include <algorithm>

#include "model/posterior_model.h"
#include "query/monte_carlo.h"
#include "util/thread_pool.h"

namespace ust {

Result<WorldArena> WorldArena::Build(const DbSnapshot& db,
                                     const std::vector<ObjectId>& objects,
                                     const TimeInterval& T, uint64_t seed,
                                     size_t num_worlds, ThreadPool* pool) {
  if (!T.valid()) return Status::InvalidArgument("empty arena interval");
  WorldArena arena;
  arena.interval_ = T;
  arena.seed_ = seed;
  arena.num_worlds_ = num_worlds;

  std::vector<ObjectId> sorted = objects;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  std::vector<std::shared_ptr<const PosteriorModel>> models;
  size_t off = 0;
  for (ObjectId id : sorted) {
    auto posterior = db.object(id).Posterior();
    // Unresolvable posteriors don't poison the whole group: the object is
    // simply not realized, and any spec naming it samples live instead.
    if (!posterior.ok()) continue;
    const auto& model = posterior.value();
    const Tic ws = std::max(T.start, model->first_tic());
    const Tic we = std::min(T.end, model->last_tic());
    if (ws > we) continue;  // never alive within T: samplers skip it too
    model->EnsureSamplers();  // warm before the (possibly parallel) fill
    Entry e;
    e.id = id;
    e.ws = ws;
    e.we = we;
    e.wlen = static_cast<uint32_t>(we - ws) + 1;
    e.slab_off = off;
    // Round each slab up to 8 uint32s = 32 bytes: per-object slabs start on
    // vector-lane boundaries of the aligned backing store.
    off += (num_worlds * e.wlen + 7) & ~size_t{7};
    arena.entries_.push_back(e);
    models.push_back(model);
  }
  arena.slab_.assign(off, 0);

  // Fill slabs: per object, one batch walk over all worlds. The stream is
  // the object's WorldStreamSeed stream — the same one WorldSampler::Create
  // hands each participant — and one walk of `num_worlds` windows consumes
  // it exactly like any chunked sequence of walks (one parent draw per
  // world, in world order), so slab contents equal per-spec sampling at any
  // chunking. Objects are independent (own stream, disjoint slab), so the
  // parallel fill is deterministic.
  auto fill = [&arena, &models, seed, num_worlds](size_t i) {
    const Entry& e = arena.entries_[i];
    uint32_t* slab = arena.slab_.data() + e.slab_off;
    Rng rng(WorldStreamSeed(seed, e.id));
    models[i]->SampleWindowBatchVisit(
        e.ws, e.we, num_worlds, rng,
        [slab, num_worlds](size_t w, size_t rel, uint32_t local, StateId) {
          slab[rel * num_worlds + w] = local;
        });
  };
  if (pool != nullptr && pool->num_threads() > 1 && arena.entries_.size() > 1) {
    pool->ParallelFor(arena.entries_.size(),
                      [&fill](size_t i, int) { fill(i); });
  } else {
    for (size_t i = 0; i < arena.entries_.size(); ++i) fill(i);
  }
  return arena;
}

const WorldArena::Entry* WorldArena::Find(ObjectId id) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, ObjectId v) { return e.id < v; });
  if (it != entries_.end() && it->id == id) return &*it;
  return nullptr;
}

}  // namespace ust
