#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "query/adaptive.h"
#include "test_world.h"
#include "util/stats.h"

namespace ust {
namespace {

using testing::Figure1World;
using testing::MakeFigure1World;

TEST(WilsonIntervalTest, CoversPointEstimate) {
  Interval ci = WilsonInterval(500, 1000, 0.05);
  EXPECT_LT(ci.lo, 0.5);
  EXPECT_GT(ci.hi, 0.5);
  EXPECT_NEAR(ci.hi - ci.lo, 2 * 1.96 * std::sqrt(0.25 / 1000.0), 0.002);
}

TEST(WilsonIntervalTest, EdgeCounts) {
  Interval zero = WilsonInterval(0, 100, 0.05);
  EXPECT_DOUBLE_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  EXPECT_LT(zero.hi, 0.1);
  Interval all = WilsonInterval(100, 100, 0.05);
  EXPECT_DOUBLE_EQ(all.hi, 1.0);
  EXPECT_GT(all.lo, 0.9);
}

TEST(WilsonIntervalTest, ShrinksWithSamples) {
  Interval small = WilsonInterval(30, 100, 0.05);
  Interval big = WilsonInterval(3000, 10000, 0.05);
  EXPECT_LT(big.hi - big.lo, small.hi - small.lo);
}

TEST(WilsonIntervalTest, WidensWithConfidence) {
  Interval loose = WilsonInterval(50, 200, 0.2);
  Interval tight = WilsonInterval(50, 200, 0.001);
  EXPECT_LT(loose.hi - loose.lo, tight.hi - tight.lo);
}

TEST(NormalQuantileTest, KnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.999), 3.090232, 1e-5);
  EXPECT_NEAR(NormalQuantile(1e-6), -4.753424, 1e-4);
}

constexpr size_t kChunk = WorldSampler::kWorldChunk;

// EstimatePnnAdaptive over the Figure-1 world's two objects, as a library
// caller runs it: no pool, no scratch, no arena.
Result<AdaptivePnnResult> Adaptive(const Figure1World& world,
                                   const std::vector<ObjectId>& targets,
                                   PrecisionMode mode, PnnSemantics semantics,
                                   double tau, double epsilon, size_t cap) {
  MonteCarloOptions mc;
  mc.num_worlds = cap;
  mc.seed = 11;
  PrecisionTarget precision;
  precision.mode = mode;
  precision.epsilon = epsilon;
  precision.delta = 0.05;
  return EstimatePnnAdaptive(*world.db, {world.o1, world.o2}, targets,
                             world.q, world.T, semantics, tau, mc, precision,
                             /*pool=*/nullptr, /*scratch=*/nullptr);
}

Result<AdaptivePnnResult> Threshold(const Figure1World& world,
                                    const std::vector<ObjectId>& targets,
                                    double tau, PnnSemantics semantics,
                                    size_t cap) {
  return Adaptive(world, targets, PrecisionMode::kThreshold, semantics, tau,
                  /*epsilon=*/0.01, cap);
}

TEST(AdaptiveEpsilonTest, StopsAtHoeffdingTarget) {
  Figure1World world = MakeFigure1World();
  auto result = Adaptive(world, {world.o1, world.o2}, PrecisionMode::kEpsilon,
                         PnnSemantics::kForall, /*tau=*/0.0, 0.02, 1 << 20);
  ASSERT_TRUE(result.ok());
  // Stops on a chunk boundary no later than the analytic Hoeffding count
  // rounded up to a chunk; the per-target Wilson rule may stop earlier.
  const size_t needed = HoeffdingSampleCount(0.02, 0.05);
  const size_t worlds = result.value().worlds_used;
  EXPECT_EQ(worlds % kChunk, 0u);
  EXPECT_LE(worlds, (needed + kChunk - 1) / kChunk * kChunk);
  EXPECT_TRUE(result.value().early_stopped);
  // And the estimates are within epsilon of the exact values.
  EXPECT_NEAR(result.value().estimates[0].forall_prob, 0.75, 0.02);
  EXPECT_NEAR(result.value().estimates[1].exists_prob, 0.25, 0.02);
}

TEST(AdaptiveEpsilonTest, MaxWorldsCapRespected) {
  Figure1World world = MakeFigure1World();
  auto result = Adaptive(world, {world.o1}, PrecisionMode::kEpsilon,
                         PnnSemantics::kForall, /*tau=*/0.0, 0.001, 1000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().worlds_used, 1000u);
  EXPECT_FALSE(result.value().early_stopped);
}

TEST(AdaptiveArgumentsTest, InvalidArgumentsRejected) {
  Figure1World world = MakeFigure1World();
  const std::vector<ObjectId> both = {world.o1, world.o2};
  auto code = [](const Result<AdaptivePnnResult>& r) {
    return r.status().code();
  };
  constexpr StatusCode kInvalid = StatusCode::kInvalidArgument;
  // Fixed-count sampling is ComputeNnTable's job.
  EXPECT_EQ(code(Adaptive(world, both, PrecisionMode::kFixedWorlds,
                          PnnSemantics::kForall, 0.5, 0.01, 1000)),
            kInvalid);
  for (double delta : {0.0, 1.0, -0.5, 1.5}) {
    MonteCarloOptions mc;
    PrecisionTarget precision;
    precision.mode = PrecisionMode::kEpsilon;
    precision.delta = delta;
    EXPECT_EQ(code(EstimatePnnAdaptive(*world.db, both, both, world.q,
                                       world.T, PnnSemantics::kForall, 0.5,
                                       mc, precision, nullptr, nullptr)),
              kInvalid)
        << "delta=" << delta;
  }
  for (double epsilon : {0.0, -0.1}) {
    EXPECT_EQ(code(Adaptive(world, both, PrecisionMode::kEpsilon,
                            PnnSemantics::kForall, 0.5, epsilon, 1000)),
              kInvalid)
        << "epsilon=" << epsilon;
  }
  for (double tau : {-0.1, 1.1}) {
    EXPECT_EQ(code(Threshold(world, both, tau, PnnSemantics::kForall, 1000)),
              kInvalid)
        << "tau=" << tau;
  }
  EXPECT_EQ(code(Threshold(world, both, 0.5, PnnSemantics::kForall, 0)),
            kInvalid);
  // The target must be among the participants.
  MonteCarloOptions mc;
  PrecisionTarget precision;
  precision.mode = PrecisionMode::kThreshold;
  EXPECT_EQ(code(EstimatePnnAdaptive(*world.db, {world.o1}, {world.o2},
                                     world.q, world.T, PnnSemantics::kForall,
                                     0.5, mc, precision, nullptr, nullptr)),
            kInvalid);
}

TEST(ThresholdDecisionTest, ClearCasesDecideEarly) {
  Figure1World world = MakeFigure1World();
  // tau = 0.5: P∀NN(o1) = 0.75 (clearly above), P∀NN(o2) = 0 (clearly below).
  auto result = Threshold(world, {world.o1, world.o2}, 0.5,
                          PnnSemantics::kForall, 1 << 20);
  ASSERT_TRUE(result.ok());
  const auto& estimates = result.value().estimates;
  ASSERT_EQ(estimates.size(), 2u);
  EXPECT_EQ(result.value().undecided, 0u);
  EXPECT_GE(estimates[0].forall_prob, 0.5);
  EXPECT_LT(estimates[1].forall_prob, 0.5);
  // Early stopping: far fewer worlds than the epsilon=0.01 Hoeffding count
  // (18445 at delta=0.05).
  EXPECT_TRUE(result.value().early_stopped);
  EXPECT_LT(result.value().worlds_used, 5000u);
}

TEST(ThresholdDecisionTest, BorderlineCaseFallsBackToEstimate) {
  Figure1World world = MakeFigure1World();
  // tau exactly at P∀NN(o1) = 0.75: the CI straddles tau forever.
  auto result =
      Threshold(world, {world.o1}, 0.75, PnnSemantics::kForall, 4096);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().estimates[0].forall_prob, 0.75, 0.05);
  // Either undecided at the cap, or decided after scraping past tau — both
  // are valid outcomes at the boundary; undecided is the typical one.
  if (result.value().undecided == 1) {
    EXPECT_EQ(result.value().worlds_used, 4096u);
    EXPECT_FALSE(result.value().early_stopped);
  }
}

TEST(ThresholdDecisionTest, ExistsSemantics) {
  Figure1World world = MakeFigure1World();
  // P∃NN(o1) = 1.0, P∃NN(o2) = 0.25.
  auto result = Threshold(world, {world.o1, world.o2}, 0.5,
                          PnnSemantics::kExists, 1 << 20);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().undecided, 0u);
  EXPECT_GE(result.value().estimates[0].exists_prob, 0.5);
  EXPECT_LT(result.value().estimates[1].exists_prob, 0.5);
}

TEST(ThresholdDecisionTest, MatchesFixedSamplingDecisions) {
  Figure1World world = MakeFigure1World();
  for (double tau : {0.1, 0.4, 0.9}) {
    auto result = Threshold(world, {world.o1, world.o2}, tau,
                            PnnSemantics::kForall, 1 << 18);
    ASSERT_TRUE(result.ok());
    // Ground truth: P∀NN(o1) = 0.75, P∀NN(o2) = 0.
    EXPECT_EQ(result.value().estimates[0].forall_prob >= tau, 0.75 >= tau)
        << "tau=" << tau;
    EXPECT_LT(result.value().estimates[1].forall_prob, tau) << "tau=" << tau;
  }
}

TEST(ThresholdDecisionTest, DecidedEstimatesAreFrozenAtTheirDecision) {
  Figure1World world = MakeFigure1World();
  const double tau = 0.74;
  auto result = Threshold(world, {world.o1, world.o2}, tau,
                          PnnSemantics::kForall, 1 << 18);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().undecided, 0u);
  const size_t worlds = result.value().worlds_used;
  // o2 (P∀NN = 0) is decided at the first chunk and stops consuming work;
  // o1 (P∀NN = 0.75 vs tau = 0.74) needs more evidence, so it is decided
  // last and sets the stop count.
  ASSERT_GT(worlds, kChunk);
  const size_t decided_at[2] = {worlds, kChunk};
  const ObjectId target[2] = {world.o1, world.o2};
  for (size_t ti = 0; ti < 2; ++ti) {
    const PnnEstimate& e = result.value().estimates[ti];
    // Frozen: both probabilities are the prefix estimates at the decision
    // boundary, bit for bit (world w is the same draw in any call).
    MonteCarloOptions prefix;
    prefix.num_worlds = decided_at[ti];
    prefix.seed = 11;
    auto fixed = EstimatePnn(*world.db, {world.o1, world.o2}, {target[ti]},
                             world.q, world.T, prefix);
    ASSERT_TRUE(fixed.ok());
    EXPECT_EQ(e.forall_prob, fixed.value()[0].forall_prob) << "target " << ti;
    EXPECT_EQ(e.exists_prob, fixed.value()[0].exists_prob) << "target " << ti;
    // And the frozen estimate passes `p >= tau` exactly as the interval
    // decision (Bonferroni across the two targets) says.
    const size_t h =
        static_cast<size_t>(std::llround(e.forall_prob * decided_at[ti]));
    const Interval ci = WilsonInterval(h, decided_at[ti], 0.05 / 2);
    EXPECT_TRUE(ci.lo >= tau || ci.hi < tau) << "target " << ti;
    EXPECT_EQ(e.forall_prob >= tau, ci.lo >= tau) << "target " << ti;
  }
  EXPECT_GE(result.value().estimates[0].forall_prob, tau);
  EXPECT_LT(result.value().estimates[1].forall_prob, tau);
}

}  // namespace
}  // namespace ust
