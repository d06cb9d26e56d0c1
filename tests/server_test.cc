// Tests of the serving tier (DESIGN.md section 5): epoch-based snapshot
// isolation of TrajectoryDatabase (online inserts and copy-on-write lifetime
// extension never perturb a pinned epoch), the stale-index guard, the
// (epoch, interval)-keyed LRU session cache, and the QueryServer front-end —
// whose outcomes must be bit-identical to serial QuerySession::RunAll on the
// same epoch even with concurrent client threads and a concurrent writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/session.h"
#include "server/query_server.h"
#include "server/session_cache.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/trace.h"

namespace ust {
namespace {

bool SameOutcome(const QueryOutcome& a, const QueryOutcome& b) {
  if (a.status.code() != b.status.code()) return false;
  if (a.kind != b.kind || a.executor != b.executor) return false;
  if (a.pnn.results.size() != b.pnn.results.size()) return false;
  for (size_t i = 0; i < a.pnn.results.size(); ++i) {
    if (a.pnn.results[i].object != b.pnn.results[i].object) return false;
    if (a.pnn.results[i].prob != b.pnn.results[i].prob) return false;  // bitwise
  }
  if (a.pnn.num_candidates != b.pnn.num_candidates) return false;
  if (a.pnn.num_influencers != b.pnn.num_influencers) return false;
  if (a.pcnn.pcnn.entries.size() != b.pcnn.pcnn.entries.size()) return false;
  for (size_t i = 0; i < a.pcnn.pcnn.entries.size(); ++i) {
    const PcnnEntry& x = a.pcnn.pcnn.entries[i];
    const PcnnEntry& y = b.pcnn.pcnn.entries[i];
    if (x.object != y.object || x.tics != y.tics || x.prob != y.prob) {
      return false;
    }
  }
  return true;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.num_states = 600;
    config.num_objects = 18;
    config.lifetime = 24;
    config.obs_interval = 6;
    config.horizon = 40;
    config.seed = 77;
    auto world = GenerateSyntheticWorld(config);
    ASSERT_TRUE(world.ok());
    world_ = std::make_unique<SyntheticWorld>(world.MoveValue());
    auto tree = UstTree::Build(*world_->db);
    ASSERT_TRUE(tree.ok());
    index_ = std::make_unique<UstTree>(tree.MoveValue());
    T_ = BusiestInterval(*world_->db, 6);
  }

  TrajectoryDatabase& db() { return *world_->db; }

  /// A mixed request stream: several query points, two intervals, all three
  /// semantics. Backends stay kAuto — the planner is part of the pipeline
  /// under test and is deterministic per spec.
  std::vector<QuerySpec> MakeSpecs(size_t n) const {
    Rng rng(5);
    std::vector<QuerySpec> specs;
    for (size_t i = 0; i < n; ++i) {
      QuerySpec spec;
      spec.kind = i % 3 == 0   ? QueryKind::kForall
                  : i % 3 == 1 ? QueryKind::kExists
                               : QueryKind::kContinuous;
      spec.q = RandomQueryState(*world_->space, rng);
      spec.T = i % 2 == 0 ? T_ : TimeInterval{T_.start, T_.end - 2};
      spec.tau = spec.kind == QueryKind::kContinuous ? 0.3 : 0.05;
      spec.mc.num_worlds = 300;
      spec.mc.seed = 21 + i;
      specs.push_back(spec);
    }
    return specs;
  }

  /// Append an object observed at `tic` (reusing object 0's motion model and
  /// first observed state, which are valid by construction).
  ObjectId AddObjectAt(Tic tic, Tic end_tic) {
    const UncertainObject& donor = db().object(0);
    auto obs = ObservationSeq::Create(
        {{tic, donor.observations().items()[0].state}});
    EXPECT_TRUE(obs.ok());
    return db().AddObject(obs.MoveValue(), donor.matrix_ptr(), end_tic);
  }

  std::unique_ptr<SyntheticWorld> world_;
  std::unique_ptr<UstTree> index_;
  TimeInterval T_{0, 0};
};

TEST_F(ServerTest, VersionCountsWritesAndValidatesThem) {
  const uint64_t v0 = db().version();
  EXPECT_GT(v0, 0u);  // one bump per seeded object
  AddObjectAt(T_.start, T_.end);
  EXPECT_EQ(db().version(), v0 + 1);

  const ObjectId last = static_cast<ObjectId>(db().size() - 1);
  const Tic end = db().object(last).last_tic();
  EXPECT_TRUE(db().ExtendLifetime(last, end + 4).ok());
  EXPECT_EQ(db().version(), v0 + 2);
  EXPECT_EQ(db().object(last).last_tic(), end + 4);

  // A no-op extension is not a write.
  EXPECT_TRUE(db().ExtendLifetime(last, end + 4).ok());
  EXPECT_EQ(db().version(), v0 + 2);

  // Shrinking and unknown ids are rejected without bumping the epoch.
  EXPECT_EQ(db().ExtendLifetime(last, end).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db().ExtendLifetime(static_cast<ObjectId>(db().size()), end + 9)
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db().version(), v0 + 2);
}

TEST_F(ServerTest, SnapshotPinsItsEpochAcrossConcurrentInserts) {
  const std::vector<QuerySpec> specs = MakeSpecs(6);
  DbSnapshot snap0 = db().Snapshot();
  // No index: both epochs then prune by alive-time filtering, which keeps
  // the influencer counts directly comparable across the insert.
  QuerySession session(snap0, nullptr);
  const std::vector<QueryOutcome> baseline = session.RunAll(specs);

  // An object alive throughout T_ lands in epoch k+1...
  AddObjectAt(T_.start, T_.end);
  EXPECT_EQ(snap0.version() + 1, db().version());
  EXPECT_EQ(db().Snapshot().size(), snap0.size() + 1);

  // ...and the epoch-k session keeps returning epoch-k bits.
  const std::vector<QueryOutcome> after = session.RunAll(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameOutcome(baseline[i], after[i])) << "spec " << i;
  }

  // A session over the new epoch sees the insert: the new object is alive
  // throughout every queried interval, so it joins the influencer sets.
  QuerySession fresh(db().Snapshot(), nullptr);
  const std::vector<QueryOutcome> next_epoch = fresh.RunAll(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    const size_t before_count = specs[i].kind == QueryKind::kContinuous
                                    ? baseline[i].pcnn.num_influencers
                                    : baseline[i].pnn.num_influencers;
    const size_t after_count = specs[i].kind == QueryKind::kContinuous
                                   ? next_epoch[i].pcnn.num_influencers
                                   : next_epoch[i].pnn.num_influencers;
    EXPECT_EQ(after_count, before_count + 1) << "spec " << i;
  }
}

TEST_F(ServerTest, ExtendLifetimeIsCopyOnWrite) {
  const ObjectId id = 0;
  const Tic old_end = db().object(id).last_tic();
  DbSnapshot snap0 = db().Snapshot();
  ASSERT_TRUE(db().ExtendLifetime(id, old_end + 6).ok());
  // The pinned epoch still holds the shorter object; the live one extended.
  EXPECT_EQ(snap0.object(id).last_tic(), old_end);
  EXPECT_EQ(db().object(id).last_tic(), old_end + 6);
  // The replacement starts with a cold posterior cache (its propagation
  // horizon changed), while the old object's stays warm for old snapshots.
  EXPECT_TRUE(snap0.object(id).EnsurePosterior().ok());
  EXPECT_TRUE(db().object(id).EnsurePosterior().ok());
}

TEST_F(ServerTest, StaleIndexIsDroppedNotTrusted) {
  const std::vector<QuerySpec> specs = MakeSpecs(4);
  AddObjectAt(T_.start, T_.end);  // index_ is now one epoch behind
  // Pin the legacy drop path: with the delta layer disabled, a stale index
  // must be discarded (and the drop counted), never trusted.
  SessionOptions no_delta;
  no_delta.delta_index = false;
  Counter drops;
  no_delta.stale_index_drops = &drops;
  QuerySession with_stale_index(db().Snapshot(), index_.get(), no_delta);
  QuerySession without_index(db().Snapshot(), nullptr);
  EXPECT_TRUE(with_stale_index.dropped_stale_index());
  EXPECT_EQ(drops.value(), 1u);
  const auto a = with_stale_index.RunAll(specs);
  const auto b = without_index.RunAll(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    // Identical — including the influencer counts, which a trusted stale
    // index would understate by the inserted object.
    EXPECT_TRUE(SameOutcome(a[i], b[i])) << "spec " << i;
  }
}

TEST_F(ServerTest, SessionCacheKeysOnEpochAndInterval) {
  SessionCache cache(2, SessionOptions{});
  DbSnapshot snap = db().Snapshot();
  const TimeInterval t1 = T_;
  const TimeInterval t2{T_.start, T_.end - 2};
  const TimeInterval t3{T_.start + 1, T_.end};

  const QuerySession* s1;
  {
    auto lease = cache.Checkout(snap, t1, index_.get());
    s1 = lease.get();
    EXPECT_EQ(lease->db().version(), snap.version());
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);  // returned to the cache by the lease
  {
    auto lease = cache.Checkout(snap, t1, index_.get());  // hit, same session
    EXPECT_EQ(lease.get(), s1);
  }
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().shared_joins, 0u);  // idle promotion, not a join

  // Capacity 2: t3 evicts the least recently used entry (t1 after t2 ran).
  cache.Checkout(snap, t2, index_.get());
  cache.Checkout(snap, t3, index_.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions_lru, 1u);
  cache.Checkout(snap, t1, index_.get());  // rebuilt: its entry was evicted
  EXPECT_EQ(cache.stats().misses, 4u);

  // A write opens a new epoch: lookups with the new snapshot miss, and
  // EvictStale drops every session pinned behind the live version.
  AddObjectAt(T_.start, T_.end);
  DbSnapshot snap2 = db().Snapshot();
  {
    auto lease = cache.Checkout(snap2, t1, index_.get());
    EXPECT_EQ(lease->db().version(), snap2.version());
  }
  EXPECT_EQ(cache.stats().misses, 5u);
  cache.EvictStale(snap2.version());
  EXPECT_EQ(cache.size(), 1u);  // only the epoch-current session survives
  EXPECT_GE(cache.stats().evictions_stale, 1u);
}

TEST_F(ServerTest, SessionCacheLeaseJoinsInsteadOfDuplicating) {
  SessionCache cache(2, SessionOptions{});
  DbSnapshot snap = db().Snapshot();

  // Two checkouts on one key: the second *joins* the first — same session,
  // one build, no busy miss, nothing idle while either holds it.
  auto lease1 = cache.Checkout(snap, T_, index_.get());
  ASSERT_TRUE(lease1);
  EXPECT_EQ(cache.stats().misses, 1u);
  auto lease2 = cache.Checkout(snap, T_, index_.get());
  ASSERT_TRUE(lease2);
  EXPECT_EQ(lease1.get(), lease2.get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().shared_joins, 1u);
  EXPECT_EQ(cache.stats().busy_misses, 0u);
  EXPECT_EQ(cache.size(), 0u);  // out on lease, not idle

  // Refcounted, idempotent return: the first release keeps the session
  // out, releasing the dead handle again changes nothing, and a later
  // checkout still joins the live lease.
  const QuerySession* session = lease1.get();
  lease1.Release();
  EXPECT_FALSE(lease1);  // the lease handle is dead after release
  lease1.Release();
  EXPECT_EQ(cache.size(), 0u);
  {
    auto lease3 = cache.Checkout(snap, T_, index_.get());  // joins
    EXPECT_EQ(lease3.get(), session);
    EXPECT_EQ(cache.stats().shared_joins, 2u);
    lease2.Release();  // two holders left -> one
    EXPECT_EQ(cache.size(), 0u);
  }  // lease3 released: last holder, session goes idle at MRU
  EXPECT_EQ(cache.size(), 1u);
  {
    auto lease4 = cache.Checkout(snap, T_, index_.get());
    EXPECT_EQ(lease4.get(), session);  // hit on the returned session
    EXPECT_EQ(cache.stats().hits, 3u);
    EXPECT_EQ(cache.stats().shared_joins, 2u);  // idle promotion
  }
  EXPECT_EQ(cache.stats().misses, 1u);  // one build served every holder

  // A session whose epoch passes mid-lease is dropped on the last release,
  // not cached — however many holders it had.
  auto stale1 = cache.Checkout(snap, T_, index_.get());
  auto stale2 = cache.Checkout(snap, T_, index_.get());
  const uint64_t stale_before = cache.stats().evictions_stale;
  cache.EvictStale(snap.version() + 1);
  EXPECT_EQ(cache.size(), 0u);
  stale1.Release();
  EXPECT_EQ(cache.stats().evictions_stale, stale_before);  // still held
  stale2.Release();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_GT(cache.stats().evictions_stale, stale_before);
}

TEST_F(ServerTest, HotGroupMorselsMatchSerialRunAllBitwise) {
  // One dominant (epoch, interval) group split into 1-spec morsels over 2
  // lanes with stealing forced on: whatever the claim/steal schedule, the
  // reassembled outcomes must equal the serial RunAll bytes. Submits are
  // paused into one admission queue so the whole stream flushes as full
  // batches of one hot group each.
  std::vector<QuerySpec> specs = MakeSpecs(18);
  for (QuerySpec& spec : specs) spec.T = T_;  // one hot interval
  QuerySession reference(db().Snapshot(), index_.get());
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);

  ServerOptions options;
  options.lanes = 2;
  options.steal = true;
  options.morsel_specs = 1;
  options.max_batch_size = 6;
  options.max_batch_delay_ms = 0.5;
  QueryServer server(db(), index_.get(), options);
  server.Pause();
  std::vector<std::future<QueryOutcome>> futures;
  for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
  server.Resume();
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameOutcome(futures[i].get(), expected[i])) << "spec " << i;
  }
  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, specs.size());
  // 1-spec morsels: exactly one morsel per request, across all lanes.
  EXPECT_EQ(stats.morsels_executed(), specs.size());
  uint64_t lane_requests = 0;
  for (const LaneStats& lane : stats.lanes) lane_requests += lane.requests;
  EXPECT_EQ(lane_requests, specs.size());
}

TEST_F(ServerTest, IdleLaneStealsFromDominantGroup) {
  // The tail-latency regression test for morsel stealing: one dominant
  // group of heavy specs next to a tiny one. Without stealing the dominant
  // group pins ONE lane while the other goes idle after its tiny group
  // (steals == 0, one lane owns every heavy request); with morsel
  // stealing the idle lane must take half-ranges of the hot
  // group (steals >= 1 and both lanes execute requests). The heavy specs
  // are hundreds of milliseconds each, the idle lane wakes in microseconds
  // — the margin is ~5 orders of magnitude, so this is timing-robust.
  std::vector<QuerySpec> heavy = MakeSpecs(6);
  for (QuerySpec& spec : heavy) {
    spec.kind = QueryKind::kForall;
    spec.T = T_;
    spec.backend = ExecutorKind::kMonteCarlo;
    spec.mc.num_worlds = 6000;
  }
  QuerySpec tiny = MakeSpecs(1)[0];
  tiny.kind = QueryKind::kForall;
  tiny.T = TimeInterval{T_.start, T_.end - 2};
  tiny.backend = ExecutorKind::kMonteCarlo;
  tiny.mc.num_worlds = 50;

  const auto run = [&](bool steal) {
    ServerOptions options;
    options.lanes = 2;
    options.steal = steal;
    options.morsel_specs = 1;
    options.max_batch_size = 7;
    options.max_batch_delay_ms = 1.0;
    QueryServer server(db(), index_.get(), options);
    server.Pause();  // everything flushes as one batch: 2 groups
    std::vector<std::future<QueryOutcome>> futures;
    for (const QuerySpec& spec : heavy) futures.push_back(server.Submit(spec));
    futures.push_back(server.Submit(tiny));
    server.Resume();
    for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
    server.Stop();
    return server.Stats();
  };

  const ServerStats nosteal = run(false);
  // No stealing: every morsel of a group runs on its adopting lane — the
  // six heavy requests all executed where the dominant group landed.
  EXPECT_EQ(nosteal.lane_steals(), 0u);
  uint64_t max_lane_requests = 0;
  for (const LaneStats& lane : nosteal.lanes) {
    max_lane_requests = std::max(max_lane_requests, lane.requests);
  }
  EXPECT_GE(max_lane_requests, heavy.size());

  const ServerStats steal = run(true);
  // Morsel scheduling: the lane that finished the tiny group steals from
  // the dominant one instead of idling.
  EXPECT_GE(steal.lane_steals(), 1u);
  for (const LaneStats& lane : steal.lanes) {
    EXPECT_GE(lane.requests, 1u) << "a lane sat idle beside a hot group";
  }
}

TEST_F(ServerTest, ServerMatchesSerialRunAllAtTwoLanesFourClients) {
  const std::vector<QuerySpec> specs = MakeSpecs(16);
  // Reference: strictly serial session over the same epoch (threads = 1).
  QuerySession reference(db().Snapshot(), index_.get());
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);

  ServerOptions options;
  options.lanes = 2;
  options.threads = 2;
  options.max_batch_size = 4;
  options.max_batch_delay_ms = 2.0;
  QueryServer server(db(), index_.get(), options);
  std::vector<std::future<QueryOutcome>> futures(specs.size());
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < specs.size(); i += 4) {
        futures[i] = server.Submit(specs[i]);
      }
    });
  }
  for (auto& t : clients) t.join();
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameOutcome(futures[i].get(), expected[i])) << "spec " << i;
  }
  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, specs.size());
  EXPECT_EQ(stats.admitted, specs.size());
  EXPECT_EQ(stats.completed, specs.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.latency_micros.count(), specs.size());
  EXPECT_EQ(stats.queue_micros.count(), specs.size());
  // Per-lane accounting covers every executed morsel and every request.
  ASSERT_EQ(stats.lanes.size(), 2u);
  uint64_t lane_batches = 0, lane_requests = 0, lane_morsels = 0;
  for (const LaneStats& lane : stats.lanes) {
    lane_batches += lane.batches;
    lane_requests += lane.requests;
    lane_morsels += lane.morsels;
    EXPECT_EQ(lane.exec_micros.count(), lane.morsels);
  }
  EXPECT_GE(lane_batches, stats.batches);  // >=: batches split per interval
  EXPECT_GE(lane_morsels, lane_batches);   // every group is >= one morsel
  EXPECT_EQ(lane_requests, specs.size());
  EXPECT_EQ(stats.lane_queue_depth, 0u);  // drained by Stop
  EXPECT_GE(stats.lane_queue_peak, 1u);
}

TEST_F(ServerTest, ZeroKIsRejectedAndTheServerKeepsServing) {
  // k = 0 over a short interval (T_ spans 6 tics, within the planner's
  // enumeration bound) used to reach the exact kernel's k >= 1 assertion
  // and abort the process. It must come back as kInvalidArgument — planned
  // or forced onto enumeration — while the lanes keep serving.
  Rng rng(17);
  QuerySpec planned;
  planned.kind = QueryKind::kForall;
  planned.q = RandomQueryState(*world_->space, rng);
  planned.T = T_;
  planned.mc.k = 0;
  planned.mc.num_worlds = 300;
  QuerySpec forced = planned;
  forced.backend = ExecutorKind::kExact;
  const std::vector<QuerySpec> specs = MakeSpecs(6);
  const std::vector<QueryOutcome> expected =
      QuerySession(db(), index_.get()).RunAll(specs);

  ServerOptions options;
  options.lanes = 2;
  QueryServer server(db(), index_.get(), options);
  for (const QuerySpec& bad : {planned, forced}) {
    const QueryOutcome out = server.Submit(bad).get();
    EXPECT_EQ(out.status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(out.worlds_used, 0u);
  }
  std::vector<std::future<QueryOutcome>> futures;
  for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
  uint64_t worlds = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    const QueryOutcome out = futures[i].get();
    ASSERT_TRUE(out.status.ok()) << "request " << i;
    EXPECT_TRUE(SameOutcome(out, expected[i])) << "request " << i;
    worlds += out.worlds_used;
  }
  server.Stop();
  // The rejected specs drew no worlds and reported none.
  EXPECT_EQ(server.Stats().worlds_sampled(), worlds);
}

TEST_F(ServerTest, MalformedSpecsAreRejectedAndTheServerKeepsServing) {
  // A reversed interval (T.start > T.end) on an indexed session used to
  // throw std::length_error out of UstTree::BuildProfiles (T.length()
  // wraps) and terminate the process from a lane thread; a NaN tau, a zero
  // epsilon and zero worlds were admitted and answered OK; a negative or
  // NaN deadline was admitted as "no deadline"; a world count above
  // kMaxQueryWorlds crashed the process. Submit now refuses each
  // with kInvalidArgument before admission (counted as rejected_invalid),
  // QuerySession refuses them too — even mixed into one RunAll with valid
  // specs — and the lanes keep serving bit-identically.
  Rng rng(23);
  QuerySpec reversed;
  reversed.kind = QueryKind::kExists;
  reversed.q = RandomQueryState(*world_->space, rng);
  reversed.T = TimeInterval{T_.end, T_.start};
  reversed.mc.num_worlds = 300;
  QuerySpec nan_tau = reversed;
  nan_tau.kind = QueryKind::kForall;
  nan_tau.T = T_;
  nan_tau.tau = std::numeric_limits<double>::quiet_NaN();
  QuerySpec zero_epsilon = nan_tau;
  zero_epsilon.tau = 0.05;
  zero_epsilon.precision.mode = PrecisionMode::kEpsilon;
  zero_epsilon.precision.epsilon = 0.0;
  QuerySpec zero_worlds = zero_epsilon;
  zero_worlds.precision = PrecisionTarget{};
  zero_worlds.mc.num_worlds = 0;
  QuerySpec negative_deadline = zero_worlds;
  negative_deadline.mc.num_worlds = 300;
  negative_deadline.deadline_ms = -5.0;
  QuerySpec nan_deadline = negative_deadline;
  nan_deadline.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  QuerySpec endless_deadline = negative_deadline;
  endless_deadline.deadline_ms = std::numeric_limits<double>::infinity();
  // SIZE_MAX worlds would wrap the NnTable word count to zero, so the
  // sampler would write past the table; 1e11 worlds cannot be allocated.
  QuerySpec max_worlds = negative_deadline;
  max_worlds.deadline_ms = 0.0;
  max_worlds.mc.num_worlds = std::numeric_limits<size_t>::max();
  QuerySpec huge_worlds = max_worlds;
  huge_worlds.mc.num_worlds = static_cast<size_t>(1e11);
  const std::vector<QuerySpec> bad = {
      reversed,          zero_epsilon, nan_tau,          zero_worlds,
      negative_deadline, nan_deadline, endless_deadline, max_worlds,
      huge_worlds};
  const std::vector<QuerySpec> specs = MakeSpecs(6);
  QuerySession session(db(), index_.get());
  const std::vector<QueryOutcome> expected = session.RunAll(specs);

  // The session path: bad specs interleaved with good ones in one batch.
  std::vector<QuerySpec> mixed = bad;
  mixed.insert(mixed.begin() + 2, specs.begin(), specs.end());
  const std::vector<QueryOutcome> mixed_out = session.RunAll(mixed);
  for (size_t i = 0; i < mixed.size(); ++i) {
    if (i >= 2 && i < 2 + specs.size()) {
      EXPECT_TRUE(SameOutcome(mixed_out[i], expected[i - 2])) << "mixed " << i;
    } else {
      EXPECT_EQ(mixed_out[i].status.code(), StatusCode::kInvalidArgument)
          << "mixed " << i;
      EXPECT_EQ(mixed_out[i].worlds_used, 0u) << "mixed " << i;
    }
  }

  ServerOptions options;
  options.lanes = 2;
  options.max_batch_size = 64;
  QueryServer server(db(), index_.get(), options);
  server.Pause();  // the bad specs are refused even while dispatch holds
  std::vector<std::future<QueryOutcome>> futures;
  for (size_t i = 0; i < bad.size(); ++i) {
    std::future<QueryOutcome> future = server.Submit(bad[i]);
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "bad " << i;
    const QueryOutcome out = future.get();
    EXPECT_EQ(out.status.code(), StatusCode::kInvalidArgument) << "bad " << i;
    EXPECT_EQ(out.worlds_used, 0u) << "bad " << i;
    if (i < specs.size()) futures.push_back(server.Submit(specs[i]));
  }
  for (size_t i = futures.size(); i < specs.size(); ++i) {
    futures.push_back(server.Submit(specs[i]));
  }
  server.Resume();
  uint64_t worlds = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    const QueryOutcome out = futures[i].get();
    ASSERT_TRUE(out.status.ok()) << "request " << i;
    EXPECT_TRUE(SameOutcome(out, expected[i])) << "request " << i;
    worlds += out.worlds_used;
  }
  // A second, all-valid round after the rejections: still bit-identical.
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameOutcome(server.Submit(specs[i]).get(), expected[i]))
        << "round 2 request " << i;
  }
  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, bad.size() + 2 * specs.size());
  EXPECT_EQ(stats.rejected, bad.size());
  EXPECT_EQ(stats.rejected_invalid, bad.size());
  EXPECT_EQ(stats.rejected,
            stats.rejected_invalid + stats.rejected_queue_full +
                stats.rejected_shed + stats.rejected_draining);
  // Refused specs never held an in-flight slot or produced an outcome.
  EXPECT_EQ(stats.admitted, 2 * specs.size());
  EXPECT_EQ(stats.completed, 2 * specs.size());
  // Both valid rounds drew the same worlds.
  EXPECT_EQ(stats.worlds_sampled(), 2 * worlds);
}

TEST_F(ServerTest, IdleLaneFlushesWithoutWaitingOutTheWindow) {
  // Work-conserving flush: on an idle server a lone request leaves the
  // admission window at once instead of sitting out max_batch_delay_ms.
  // The lane may not have parked yet when Submit lands; its parking then
  // wakes the held window (no lost wakeup), so the flush is still "idle".
  // The bounds leave room for a sanitizer build's slow session build.
  ServerOptions options;
  options.lanes = 1;
  options.max_batch_delay_ms = 5000.0;
  QueryServer server(db(), index_.get(), options);
  const QuerySpec spec = MakeSpecs(1)[0];
  const auto start = std::chrono::steady_clock::now();
  const QueryOutcome out = server.Submit(spec).get();
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_TRUE(out.status.ok());
  EXPECT_LT(elapsed_ms, 2500.0);
  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.flush_idle, 1u);
  EXPECT_EQ(stats.flush_deadline, 0u);
  EXPECT_LT(stats.queue_micros.max(), 250000.0);  // submit-to-flush
}

TEST_F(ServerTest, BusyLaneHoldsTheWindowAndFlushesOneBatchWhenItFrees) {
  // While the only lane is busy the window still coalesces: four specs
  // submitted behind a stalled morsel leave as ONE batch the moment the
  // lane parks (long before the 5 s window), and every outcome is
  // bit-identical to serial RunAll.
  fault::ClearAll();
  fault::FaultSpec stall;
  stall.max_fires = 1;
  stall.stall_ms = 100.0;
  fault::Arm("lane_stall", stall);
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";

  std::vector<QuerySpec> specs = MakeSpecs(5);
  for (QuerySpec& spec : specs) spec.T = T_;
  const std::vector<QueryOutcome> expected =
      QuerySession(db(), index_.get()).RunAll(specs);

  ServerOptions options;
  options.lanes = 1;
  options.max_batch_delay_ms = 5000.0;
  QueryServer server(db(), index_.get(), options);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<QueryOutcome>> futures;
  futures.push_back(server.Submit(specs[0]));
  // The lane adopted the first batch; its morsel stalls 100 ms.
  while (server.Stats().lanes[0].batches < 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (size_t i = 1; i < specs.size(); ++i) {
    futures.push_back(server.Submit(specs[i]));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_TRUE(SameOutcome(futures[i].get(), expected[i])) << "request " << i;
  }
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_LT(elapsed_ms, 2500.0);  // the lane freed it, not the 5 s window
  server.Stop();
  fault::ClearAll();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.flush_idle, 2u);
  EXPECT_EQ(stats.flush_deadline, 0u);
  // Two interval groups, one per batch: the second carried all four specs.
  EXPECT_EQ(stats.lanes[0].batches, 2u);
  EXPECT_EQ(stats.lanes[0].requests, specs.size());
  EXPECT_EQ(stats.completed, specs.size());
}

TEST_F(ServerTest, StopDrainsEveryAdmittedRequest) {
  const std::vector<QuerySpec> specs = MakeSpecs(10);
  ServerOptions options;
  options.lanes = 2;
  options.max_batch_size = 4;
  options.max_batch_delay_ms = 50.0;  // Stop must not wait out the window
  QueryServer server(db(), index_.get(), options);
  server.Pause();  // requests pile up: the drain below is deterministic
  std::vector<std::future<QueryOutcome>> futures;
  for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
  server.Stop();
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_TRUE(futures[i].get().status.ok()) << "request " << i;
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.admitted, specs.size());
  EXPECT_EQ(stats.completed, specs.size());
  EXPECT_GE(stats.flush_drain, 1u);
  EXPECT_EQ(stats.lane_queue_depth, 0u);
  uint64_t lane_requests = 0;
  for (const LaneStats& lane : stats.lanes) lane_requests += lane.requests;
  EXPECT_EQ(lane_requests, specs.size());
}

TEST_F(ServerTest, OversizedBatchDoesNotStallSmallBatchFlush) {
  // Regression test for the pre-lane inline dispatcher: there, the thread
  // that flushed a batch also executed it, so one oversized batch blocked
  // the admission window and every batch behind it until it finished. With
  // execution lanes, the flush cadence is independent of execution time:
  // the small batch below must flush on time — at once if the second lane
  // is idle, on its deadline if it is stealing from the oversized batch —
  // and complete while the oversized batch is still running.
  ServerOptions options;
  options.lanes = 2;
  options.max_batch_size = 4;
  options.max_batch_delay_ms = 1.0;
  QueryServer server(db(), index_.get(), options);

  // One oversized batch: heavy Monte-Carlo work, hundreds of milliseconds.
  std::vector<QuerySpec> big = MakeSpecs(4);
  for (QuerySpec& spec : big) {
    spec.kind = QueryKind::kForall;
    spec.T = T_;
    spec.backend = ExecutorKind::kMonteCarlo;
    spec.mc.num_worlds = 50000;
  }
  // One small, fast request over a different interval (its own group).
  QuerySpec small = MakeSpecs(1)[0];
  small.kind = QueryKind::kForall;
  small.T = TimeInterval{T_.start, T_.end - 2};
  small.backend = ExecutorKind::kMonteCarlo;
  small.mc.num_worlds = 50;

  // Pause so all four oversized specs flush as exactly one full batch.
  server.Pause();
  std::vector<std::future<QueryOutcome>> big_futures;
  for (const QuerySpec& spec : big) big_futures.push_back(server.Submit(spec));
  server.Resume();
  std::future<QueryOutcome> small_future = server.Submit(small);

  EXPECT_TRUE(small_future.get().status.ok());
  for (auto& f : big_futures) EXPECT_TRUE(f.get().status.ok());

  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.flush_full, 1u);      // the oversized batch
  // The small one, on time: to an idle lane or by the window.
  EXPECT_GE(stats.flush_idle + stats.flush_deadline, 1u);
  // The regression is asserted through the server's own clocks, not through
  // instantaneous future polling — robust against the thread scheduling of
  // an oversubscribed sanitizer CI runner. On the pre-lane inline
  // dispatcher both checks fail: the small request's flush (and hence its
  // whole life) would sit behind the oversized batch's execution, pushing
  // queue_micros.max() and latency_micros.min() up to max_exec.
  double max_exec = 0.0;
  for (const LaneStats& lane : stats.lanes) {
    max_exec = std::max(max_exec, lane.exec_micros.max());
  }
  // Admission-to-flush latency stayed decoupled from execution: even the
  // slowest flush was far quicker than the oversized batch's execution.
  EXPECT_LT(stats.queue_micros.max(), max_exec / 2.0);
  // And the small request (the fastest end-to-end, hence min()) completed
  // well inside the oversized batch's execution window.
  EXPECT_LT(stats.latency_micros.min(), max_exec / 2.0);
}

TEST_F(ServerTest, ServerRejectsWhenAdmissionQueueIsFull) {
  const std::vector<QuerySpec> specs = MakeSpecs(8);
  ServerOptions options;
  options.queue_capacity = 3;
  options.max_batch_size = 64;
  options.max_batch_delay_ms = 5.0;
  QueryServer server(db(), index_.get(), options);
  server.Pause();  // queue fills deterministically while dispatch holds

  std::vector<std::future<QueryOutcome>> futures;
  for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
  // First 3 admitted, the rest bounced immediately with kResourceLimit.
  for (size_t i = 3; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(futures[i].get().status.code(), StatusCode::kResourceLimit);
  }
  server.Resume();
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(futures[i].get().status.ok()) << "request " << i;
  }
  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.rejected, 5u);
  // Every rejection lands in exactly one split bucket (none were draining —
  // the server was live throughout the burst).
  EXPECT_EQ(stats.rejected,
            stats.rejected_invalid + stats.rejected_queue_full +
                stats.rejected_shed);
  EXPECT_EQ(stats.rejected_draining, 0u);
  EXPECT_EQ(stats.rejected_invalid, 0u);
  EXPECT_EQ(stats.completed, 3u);

  // After Stop, submits bounce with kResourceLimit — the same backpressure
  // code clients already retry on, not a client-bug code like
  // kInvalidArgument (a draining server is an operational condition).
  auto late = server.Submit(specs[0]);
  ASSERT_EQ(late.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(late.get().status.code(), StatusCode::kResourceLimit);
  const ServerStats after = server.Stats();
  EXPECT_EQ(after.rejected_draining, 1u);
  EXPECT_EQ(after.rejected, 6u);
}

TEST_F(ServerTest, ConcurrentWritesNeverTearServedQueries) {
  // The writer only touches lifetimes/objects *outside* every queried
  // interval, so all epochs agree on the correct answer — any deviation in
  // a served outcome would mean a torn read of the live database.
  const std::vector<QuerySpec> specs = MakeSpecs(6);
  // No index on either side: sessions over post-write epochs would drop a
  // pre-write index, and pruning sets must match for bitwise comparison.
  QuerySession reference(db().Snapshot(), nullptr);
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);

  ServerOptions options;
  options.max_batch_size = 4;
  options.max_batch_delay_ms = 0.5;
  QueryServer server(db(), nullptr, options);

  std::thread writer([&] {
    for (int i = 0; i < 12; ++i) {
      AddObjectAt(T_.end + 8, T_.end + 12);  // never alive inside T_ or sub-T
    }
  });
  std::vector<std::future<QueryOutcome>> futures;
  for (int round = 0; round < 4; ++round) {
    for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
  }
  writer.join();
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_TRUE(SameOutcome(futures[i].get(), expected[i % specs.size()]))
        << "request " << i;
  }

  // Epoch-keyed invalidation, pinned deterministically: all in-flight work
  // is drained, so the cache holds sessions at epochs <= the current one;
  // one more write then forces the next batch to miss on the new version
  // and to reap at least one stale-epoch session.
  const SessionCacheStats before = server.Stats().cache;
  AddObjectAt(T_.end + 8, T_.end + 12);
  std::vector<std::future<QueryOutcome>> late;
  for (const QuerySpec& spec : specs) late.push_back(server.Submit(spec));
  for (size_t i = 0; i < late.size(); ++i) {
    EXPECT_TRUE(SameOutcome(late[i].get(), expected[i])) << "late " << i;
  }
  server.Stop();
  const SessionCacheStats after = server.Stats().cache;
  EXPECT_GT(after.misses, before.misses);
  EXPECT_GT(after.evictions_stale, before.evictions_stale);
}

TEST_F(ServerTest, ZeroBatchSizeIsClampedNotStarved) {
  ServerOptions options;
  options.max_batch_size = 0;  // misconfiguration must not starve requests
  options.max_batch_delay_ms = 0.1;
  QueryServer server(db(), index_.get(), options);
  auto future = server.Submit(MakeSpecs(1)[0]);
  EXPECT_TRUE(future.get().status.ok());
}

// With ServerOptions::trace on, one request must be followable
// admission-to-finalize: at least six distinct span names carry its id
// (the ISSUE acceptance bar, checked here without the bench harness).
TEST_F(ServerTest, TraceFollowsRequestAcrossLifecycle) {
  const std::vector<QuerySpec> specs = MakeSpecs(6);
  ServerOptions options;
  options.trace = true;
  {
    QueryServer server(db(), index_.get(), options);
    std::vector<std::future<QueryOutcome>> futures;
    for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
    for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
    server.Stop();  // joins lanes and disables tracing
  }
  const std::vector<trace::TraceEvent> events = trace::Snapshot();
  ASSERT_FALSE(events.empty());
  std::vector<std::string> names_for_req1;
  for (const trace::TraceEvent& event : events) {
    if (event.arg_name == nullptr || std::string(event.arg_name) != "req") {
      continue;
    }
    if (event.arg != 1) continue;
    const std::string name = event.name;
    if (std::find(names_for_req1.begin(), names_for_req1.end(), name) ==
        names_for_req1.end()) {
      names_for_req1.push_back(name);
    }
  }
  EXPECT_GE(names_for_req1.size(), 6u)
      << "request 1 spans: " << names_for_req1.size();
  for (const char* required : {"admit", "queue", "finalize"}) {
    EXPECT_NE(std::find(names_for_req1.begin(), names_for_req1.end(),
                        std::string(required)),
              names_for_req1.end())
        << "missing span " << required;
  }
  trace::Reset();
}

TEST_F(ServerTest, StatsRenderAsJson) {
  const std::vector<QuerySpec> specs = MakeSpecs(5);
  QueryServer server(db(), index_.get(), ServerOptions{});
  std::vector<std::future<QueryOutcome>> futures;
  for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  server.Stop();
  const std::string json = server.Stats().ToJson();
  for (const char* key :
       {"\"submitted\":5", "\"completed\":5", "\"rejected\":0",
        "\"rejected_invalid\":0", "\"rejected_queue_full\":0",
        "\"rejected_shed\":0", "\"rejected_draining\":0",
        "\"expired_in_queue\":0",
        "\"expired_on_lane\":0", "\"degraded_requests\":0",
        "\"overload_regime\":", "\"session_build_failures\":0", "\"batches\":",
        "\"flush_idle\":", "\"flush_deadline\":",
        "\"cache_misses\":", "\"cache_busy_misses\":",
        "\"cache_shared_joins\":", "\"latency_us\":",
        "\"queue_us\":", "\"p50\":", "\"p99\":", "\"lane_queue_depth\":",
        "\"lane_queue_peak\":", "\"lane_steals\":", "\"morsels_executed\":",
        "\"arena_builds\":", "\"arena_spec_reuses\":", "\"arena_bytes\":",
        "\"early_stops\":", "\"worlds_saved\":", "\"worlds_sampled\":",
        "\"trace_dropped\":", "\"lane_idle_us\":",
        "\"lanes\":[{", "\"exec_us\":", "\"morsels\":", "\"steals\":",
        "\"arena_hits\":", "\"idle_us\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << json << "\nmissing " << key;
  }
}

}  // namespace
}  // namespace ust
