// Golden digests of the Monte-Carlo world-evaluation kernel: the NnTable
// bitmap words and the adaptive estimator's outcomes (stop count, early-stop
// flag, estimates) are pinned to fixed 64-bit digests, across arena vs live
// sampling, k = 1 / k = 2, fixed / kEpsilon / kThreshold precision and 1 / 2
// pool threads. Any rewrite of the sampling, marking or reduction code must
// reproduce these digests exactly — the kernel's outcomes are a contract,
// not an implementation detail.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "query/adaptive.h"
#include "query/monte_carlo.h"
#include "query/world_arena.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ust {
namespace {

/// FNV-1a over 64-bit values.
struct Digest {
  uint64_t h = 1469598103934665603ULL;
  void Add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void AddDouble(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
};

/// Digest of every (participant, tic, world) bit of `table`, packed into
/// 64-world words, plus the full-interval P∀NN/P∃NN of every participant.
uint64_t TableDigest(const NnTable& table) {
  Digest d;
  const TimeInterval& T = table.interval();
  for (size_t i = 0; i < table.objects().size(); ++i) {
    for (Tic t = T.start; t <= T.end; ++t) {
      uint64_t word = 0;
      for (size_t w = 0; w < table.num_worlds(); ++w) {
        if (table.IsNn(i, w, t)) word |= uint64_t{1} << (w & 63);
        if ((w & 63) == 63 || w + 1 == table.num_worlds()) {
          d.Add(word);
          word = 0;
        }
      }
    }
    d.AddDouble(table.ForallProb(i));
    d.AddDouble(table.ExistsProb(i));
  }
  return d.h;
}

uint64_t AdaptiveDigest(const AdaptivePnnResult& r) {
  Digest d;
  d.Add(r.worlds_used);
  d.Add(r.early_stopped ? 1 : 0);
  d.Add(r.undecided);
  for (const PnnEstimate& e : r.estimates) {
    d.Add(e.object);
    d.AddDouble(e.forall_prob);
    d.AddDouble(e.exists_prob);
  }
  return d.h;
}

class KernelDigestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.num_states = 600;
    config.num_objects = 24;
    config.lifetime = 24;
    config.obs_interval = 6;
    config.horizon = 40;
    config.seed = 91;
    auto world = GenerateSyntheticWorld(config);
    ASSERT_TRUE(world.ok());
    world_ = std::make_unique<SyntheticWorld>(world.MoveValue());
    T_ = BusiestInterval(*world_->db, 8);
    // Every object of the database: some are alive throughout T, some only
    // over part of it, some never — all three marking cases are covered.
    participants_ = world_->db->AliveSometime(0, config.horizon);
    ASSERT_GT(participants_.size(), 10u);
    Rng rng(13);
    q_ = RandomQueryState(*world_->space, rng);
  }

  /// The table for (k, worlds), checked identical across arena vs live and
  /// 1 vs 2 pool threads; returns its digest.
  uint64_t FixedDigest(int k, size_t worlds) {
    MonteCarloOptions mc;
    mc.k = k;
    mc.num_worlds = worlds;
    mc.seed = 1234;
    auto arena = WorldArena::Build(*world_->db, participants_, T_, mc.seed,
                                   worlds);
    EXPECT_TRUE(arena.ok());
    uint64_t first = 0;
    bool have_first = false;
    for (bool use_arena : {false, true}) {
      for (int threads : {1, 2}) {
        ThreadPool pool(threads);
        bool used_arena = false;
        auto table = ComputeNnTableScratch(
            *world_->db, participants_, q_, T_, mc, &pool, nullptr,
            use_arena ? &arena.value() : nullptr, &used_arena);
        EXPECT_TRUE(table.ok());
        if (!table.ok()) return 0;
        EXPECT_EQ(used_arena, use_arena);
        const uint64_t digest = TableDigest(table.value());
        if (!have_first) {
          first = digest;
          have_first = true;
        }
        EXPECT_EQ(digest, first) << "k=" << k << " worlds=" << worlds
                                 << " arena=" << use_arena
                                 << " threads=" << threads;
      }
    }
    return first;
  }

  /// The adaptive outcome for (k, mode), checked identical across arena vs
  /// live and 1 vs 2 pool threads; returns its digest.
  uint64_t AdaptiveDigestFor(int k, PrecisionMode mode, PnnSemantics sem,
                             double epsilon, double tau) {
    MonteCarloOptions mc;
    mc.k = k;
    mc.num_worlds = 3000;  // six chunks, the last one partial (440 worlds)
    mc.seed = 99;
    PrecisionTarget precision;
    precision.mode = mode;
    precision.epsilon = epsilon;
    precision.delta = 0.05;
    auto arena = WorldArena::Build(*world_->db, participants_, T_, mc.seed,
                                   mc.num_worlds);
    EXPECT_TRUE(arena.ok());
    uint64_t first = 0;
    bool have_first = false;
    for (bool use_arena : {false, true}) {
      for (int threads : {1, 2}) {
        ThreadPool pool(threads);
        bool used_arena = false;
        auto r = EstimatePnnAdaptive(
            *world_->db, participants_, participants_, q_, T_, sem, tau, mc,
            precision, &pool, nullptr, use_arena ? &arena.value() : nullptr,
            &used_arena);
        EXPECT_TRUE(r.ok());
        if (!r.ok()) return 0;
        EXPECT_EQ(used_arena, use_arena);
        const uint64_t digest = AdaptiveDigest(r.value());
        if (!have_first) {
          first = digest;
          have_first = true;
        }
        EXPECT_EQ(digest, first) << "k=" << k << " arena=" << use_arena
                                 << " threads=" << threads;
      }
    }
    return first;
  }

  std::unique_ptr<SyntheticWorld> world_;
  TimeInterval T_{0, 0};
  std::vector<ObjectId> participants_;
  QueryTrajectory q_ = QueryTrajectory::FromPoint({0, 0});
};

TEST_F(KernelDigestTest, NnTableWordsMatchGoldenDigests) {
  EXPECT_EQ(FixedDigest(1, 100), 0x512d3ac36d4baccfULL);
  EXPECT_EQ(FixedDigest(1, 3000), 0x8f37054a2c500d16ULL);
  EXPECT_EQ(FixedDigest(2, 100), 0xe78736259724a043ULL);
  EXPECT_EQ(FixedDigest(2, 3000), 0x6a8e2d952e89b843ULL);
}

TEST_F(KernelDigestTest, AdaptiveOutcomesMatchGoldenDigests) {
  // Stops after two chunks.
  EXPECT_EQ(AdaptiveDigestFor(1, PrecisionMode::kEpsilon,
                              PnnSemantics::kExists, 0.04, 0.0),
            0x8cee9ef28ba6b330ULL);
  // Runs to the cap: every chunk, the partial last one included.
  EXPECT_EQ(AdaptiveDigestFor(1, PrecisionMode::kEpsilon,
                              PnnSemantics::kForall, 0.015, 0.0),
            0x3654e411a29b2edeULL);
  // One target straddles tau up to the cap; the rest freeze early.
  EXPECT_EQ(AdaptiveDigestFor(1, PrecisionMode::kThreshold,
                              PnnSemantics::kForall, 0.01, 0.2),
            0xde27ac7f412f8640ULL);
  // Decided in the first chunk.
  EXPECT_EQ(AdaptiveDigestFor(1, PrecisionMode::kThreshold,
                              PnnSemantics::kExists, 0.01, 0.2),
            0xe87ccb9633dea34aULL);
  EXPECT_EQ(AdaptiveDigestFor(2, PrecisionMode::kEpsilon,
                              PnnSemantics::kForall, 0.005, 0.0),
            0xaaa31782499cb5ceULL);
  EXPECT_EQ(AdaptiveDigestFor(2, PrecisionMode::kThreshold,
                              PnnSemantics::kForall, 0.01, 0.01),
            0xaaa31782499cb5ceULL);
}

}  // namespace
}  // namespace ust
