// Tests of the overload machinery (DESIGN.md section 11): the regime state
// machine (watermarks, queue-delay EWMA, one-step de-escalation under
// hysteresis), admission-side shedding and graceful precision degradation,
// deadline propagation (expiry in the queue and at morsel boundaries only),
// and the two determinism contracts the tier must keep under overload:
//   - a degraded spec is itself a deterministic spec (bit-identical to a
//     serial session running the coarsened spec), and
//   - expiring some requests of a batch never perturbs the survivors —
//     their outcomes stay bitwise-identical to running the survivors alone,
//     at any {lanes, steal} schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/session.h"
#include "server/overload.h"
#include "server/query_server.h"
#include "util/rng.h"

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

// ---------------------------------------------------------- the controller

TEST(OverloadControllerTest, EscalatesAtUtilizationWatermarks) {
  OverloadController controller;  // defaults: degrade 0.50, shed 0.85
  EXPECT_EQ(controller.Update(0, 100), OverloadRegime::kNormal);
  EXPECT_EQ(controller.Update(49, 100), OverloadRegime::kNormal);
  EXPECT_EQ(controller.Update(50, 100), OverloadRegime::kDegrade);
  EXPECT_EQ(controller.escalations(), 1u);
  EXPECT_EQ(controller.Update(85, 100), OverloadRegime::kShed);
  EXPECT_EQ(controller.escalations(), 2u);
}

TEST(OverloadControllerTest, SkipsStraightToShedUnderASpike) {
  OverloadController controller;
  EXPECT_EQ(controller.Update(90, 100), OverloadRegime::kShed);
  // A two-regime jump counts both escalations.
  EXPECT_EQ(controller.escalations(), 2u);
}

TEST(OverloadControllerTest, DeescalatesOneStepWithHysteresis) {
  OverloadController controller;
  ASSERT_EQ(controller.Update(90, 100), OverloadRegime::kShed);
  // Inside the hysteresis band (exit bar is 0.85 - 0.10): still shedding.
  EXPECT_EQ(controller.Update(80, 100), OverloadRegime::kShed);
  // Clear of the shed bar — but only one step down per update, and the
  // utilization still sits above the degrade watermark anyway.
  EXPECT_EQ(controller.Update(60, 100), OverloadRegime::kDegrade);
  // Inside the degrade hysteresis band (exit bar 0.50 - 0.10).
  EXPECT_EQ(controller.Update(45, 100), OverloadRegime::kDegrade);
  EXPECT_EQ(controller.Update(30, 100), OverloadRegime::kNormal);
  // De-escalations are not escalations.
  EXPECT_EQ(controller.escalations(), 2u);
}

TEST(OverloadControllerTest, IdleNeverStepsDownTwoRegimesAtOnce) {
  OverloadController controller;
  ASSERT_EQ(controller.Update(90, 100), OverloadRegime::kShed);
  // Even a dead-idle signal walks down one regime per update: shed ->
  // degrade -> normal over two updates, never shed -> normal in one.
  EXPECT_EQ(controller.Update(0, 100), OverloadRegime::kDegrade);
  EXPECT_EQ(controller.Update(0, 100), OverloadRegime::kNormal);
}

TEST(OverloadControllerTest, QueueDelayEwmaDrivesRegimesAlone) {
  OverloadController controller;
  // First sample initializes the EWMA outright (no warm-up bias).
  EXPECT_EQ(controller.queue_delay_ewma_ms(), 0.0);
  controller.NoteQueueDelay(2000.0 * 1000.0);  // 2000 ms >= shed_queue_ms
  EXPECT_DOUBLE_EQ(controller.queue_delay_ewma_ms(), 2000.0);
  // Utilization is zero: the queue signal alone must raise the regime.
  EXPECT_EQ(controller.Update(0, 100), OverloadRegime::kShed);
  // Fast flushes decay the EWMA; the regime then steps down one per update.
  for (int i = 0; i < 60; ++i) controller.NoteQueueDelay(0.0);
  EXPECT_LT(controller.queue_delay_ewma_ms(),
            controller.options().degrade_queue_ms * 0.9);
  EXPECT_EQ(controller.Update(0, 100), OverloadRegime::kDegrade);
  EXPECT_EQ(controller.Update(0, 100), OverloadRegime::kNormal);
}

TEST(OverloadControllerTest, DisabledPinsNormal) {
  OverloadOptions options;
  options.enabled = false;
  OverloadController controller(options);
  EXPECT_EQ(controller.Update(100, 100), OverloadRegime::kNormal);
  EXPECT_EQ(controller.escalations(), 0u);
}

TEST(OverloadControllerTest, RegimeNamesAreStable) {
  EXPECT_STREQ(OverloadRegimeName(OverloadRegime::kNormal), "normal");
  EXPECT_STREQ(OverloadRegimeName(OverloadRegime::kDegrade), "degrade");
  EXPECT_STREQ(OverloadRegimeName(OverloadRegime::kShed), "shed");
}

// ------------------------------------------------------------- the server

class OverloadServerTest : public ::testing::Test {
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

  /// Monte-Carlo P∀NN specs on the implicit fixed-worlds default — the
  /// degradable request class. Seeds differ per spec.
  std::vector<QuerySpec> MakeMcSpecs(size_t n, size_t worlds = 300) const {
    Rng rng(5);
    std::vector<QuerySpec> specs;
    for (size_t i = 0; i < n; ++i) {
      QuerySpec spec;
      spec.kind = QueryKind::kForall;
      spec.q = RandomQueryState(*world_->space, rng);
      spec.T = i % 2 == 0 ? T_ : TimeInterval{T_.start, T_.end - 2};
      spec.tau = 0.05;
      spec.mc.num_worlds = worlds;
      spec.mc.seed = 21 + i;
      spec.backend = ExecutorKind::kMonteCarlo;
      specs.push_back(spec);
    }
    return specs;
  }

  std::unique_ptr<SyntheticWorld> world_;
  std::unique_ptr<UstTree> index_;
  TimeInterval T_{0, 0};
};

TEST_F(OverloadServerTest, ShedsLowPriorityAndSparesHighUnderOverload) {
  const std::vector<QuerySpec> specs = MakeMcSpecs(4);
  ServerOptions options;
  options.queue_capacity = 4;
  options.overload.degrade_watermark = 0.25;
  options.overload.shed_watermark = 0.50;
  QueryServer server(db(), index_.get(), options);
  server.Pause();  // utilization builds deterministically while dispatch holds

  std::vector<std::future<QueryOutcome>> futures;
  // 1st submit sees 0/4 (normal), 2nd sees 1/4 (degrade), 3rd sees 2/4 —
  // the shed watermark.
  futures.push_back(server.Submit(specs[0]));
  futures.push_back(server.Submit(specs[1]));
  QuerySpec low = specs[2];  // priority 0: the shed class
  std::future<QueryOutcome> shed_future = server.Submit(low);
  QuerySpec high = specs[3];
  high.priority = 1;  // above shed_max_priority: rides out the overload
  futures.push_back(server.Submit(std::move(high)));

  // The shed rejection resolves immediately, without a queue slot.
  ASSERT_EQ(shed_future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(shed_future.get().status.code(), StatusCode::kResourceLimit);

  server.Resume();
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  server.Stop();

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.rejected_shed, 1u);
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  // Submits 2 and 4 were admitted above the degrade watermark on implicit
  // fixed-worlds specs, so both were coarsened.
  EXPECT_EQ(stats.degraded_requests, 2u);
  EXPECT_GE(stats.overload_regime, 1u);
}

TEST_F(OverloadServerTest, DegradeCoarsensOnlyImplicitPrecisionSpecs) {
  ServerOptions options;
  options.overload.degrade_watermark = 0.0;  // always at least kDegrade
  options.overload.shed_watermark = 2.0;     // never shed
  QueryServer server(db(), index_.get(), options);

  // (a) Implicit fixed-worlds Monte-Carlo: the degradable class.
  QuerySpec implicit_spec = MakeMcSpecs(1)[0];
  // (b) An explicit precision contract is never overridden.
  QuerySpec explicit_spec = implicit_spec;
  explicit_spec.precision.mode = PrecisionMode::kEpsilon;
  explicit_spec.precision.epsilon = 0.001;
  // (c) Continuous queries have no world-count knob to coarsen.
  QuerySpec continuous_spec = MakeMcSpecs(1)[0];
  continuous_spec.kind = QueryKind::kContinuous;
  continuous_spec.tau = 0.3;

  const QueryOutcome implicit_out = server.Submit(implicit_spec).get();
  const QueryOutcome explicit_out = server.Submit(explicit_spec).get();
  const QueryOutcome continuous_out = server.Submit(continuous_spec).get();
  EXPECT_TRUE(implicit_out.status.ok());
  EXPECT_TRUE(explicit_out.status.ok());
  EXPECT_TRUE(continuous_out.status.ok());
  server.Stop();
  EXPECT_EQ(server.Stats().degraded_requests, 1u);

  // The degraded spec is itself a deterministic spec: bit-identical to a
  // serial session running the coarsened spec directly.
  QuerySpec coarse = implicit_spec;
  coarse.precision.mode = PrecisionMode::kEpsilon;
  coarse.precision.epsilon = options.overload.degrade_epsilon;
  coarse.precision.delta = options.overload.degrade_delta;
  QuerySession reference(db().Snapshot(), index_.get());
  EXPECT_TRUE(SameOutcome(implicit_out, reference.RunAll({coarse})[0]));
  // And the explicit spec ran under *its* contract, not the server's.
  QuerySession reference2(db().Snapshot(), index_.get());
  EXPECT_TRUE(
      SameOutcome(explicit_out, reference2.RunAll({explicit_spec})[0]));
}

TEST_F(OverloadServerTest, ExpiredRequestsResolveInQueueWithoutLaneTime) {
  const std::vector<QuerySpec> base = MakeMcSpecs(3);
  ServerOptions options;
  QueryServer server(db(), index_.get(), options);
  server.Pause();  // everything expires while dispatch holds

  std::vector<std::future<QueryOutcome>> futures;
  for (const QuerySpec& spec : base) {
    QuerySpec doomed = spec;
    doomed.deadline_ms = 2.0;
    futures.push_back(server.Submit(std::move(doomed)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Resume();
  for (auto& f : futures) {
    const QueryOutcome outcome = f.get();
    EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded);
  }
  server.Stop();

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.expired_in_queue, 3u);
  EXPECT_EQ(stats.expired_on_lane, 0u);
  // Expired requests still count completed: one outcome per admission.
  EXPECT_EQ(stats.completed, 3u);
  // No lane ever saw them.
  for (const LaneStats& lane : stats.lanes) {
    EXPECT_EQ(lane.morsels, 0u);
  }
}

TEST_F(OverloadServerTest, SurvivorsAreBitIdenticalAtAnySchedule) {
  // The deadline-determinism contract: expiry can only drop whole specs at
  // request/morsel boundaries, so the specs that *do* execute return
  // bitwise-identical outcomes to running the survivors alone — whatever
  // the lane count or steal mode, and whatever interleaving the expired
  // requests had with them.
  const std::vector<QuerySpec> all = MakeMcSpecs(10);
  std::vector<QuerySpec> survivors;
  for (size_t i = 0; i < all.size(); ++i) {
    if (i % 3 != 1) survivors.push_back(all[i]);
  }
  QuerySession reference(db().Snapshot(), index_.get());
  const std::vector<QueryOutcome> expected = reference.RunAll(survivors);

  for (int lanes : {1, 2}) {
    for (bool steal : {false, true}) {
      ServerOptions options;
      options.lanes = lanes;
      options.steal = steal;
      options.max_batch_size = 64;  // one mixed batch
      options.max_batch_delay_ms = 5.0;
      QueryServer server(db(), index_.get(), options);
      server.Pause();

      std::vector<std::future<QueryOutcome>> futures;
      for (size_t i = 0; i < all.size(); ++i) {
        QuerySpec spec = all[i];
        if (i % 3 == 1) spec.deadline_ms = 2.0;  // doomed
        futures.push_back(server.Submit(std::move(spec)));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      server.Resume();

      size_t next_survivor = 0;
      for (size_t i = 0; i < futures.size(); ++i) {
        const QueryOutcome outcome = futures[i].get();
        if (i % 3 == 1) {
          EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded)
              << "lanes=" << lanes << " steal=" << steal << " i=" << i;
        } else {
          EXPECT_TRUE(SameOutcome(outcome, expected[next_survivor]))
              << "lanes=" << lanes << " steal=" << steal << " i=" << i;
          ++next_survivor;
        }
      }
      server.Stop();
      const ServerStats stats = server.Stats();
      EXPECT_EQ(stats.completed, all.size());
      EXPECT_EQ(stats.expired_in_queue + stats.expired_on_lane,
                all.size() - survivors.size());
    }
  }
}

TEST_F(OverloadServerTest, SubmitAfterStopIsDeterministicBackpressure) {
  QueryServer server(db(), index_.get(), ServerOptions{});
  server.Stop();
  for (int i = 0; i < 3; ++i) {
    auto future = server.Submit(MakeMcSpecs(1)[0]);
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(future.get().status.code(), StatusCode::kResourceLimit);
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.rejected_draining, 3u);
  EXPECT_EQ(stats.rejected, 3u);
}

TEST_F(OverloadServerTest, SubmitVsStopHammerNeverLeaksAPromise) {
  // The draining race: clients submit full-tilt while another thread stops
  // the server. Whatever interleaving the scheduler picks, every future
  // must resolve (served, or rejected as draining) and the ledger must
  // reconcile exactly — a promise leak would hang a .get() forever and a
  // missed counter would break the invariants.
  const std::vector<QuerySpec> specs = MakeMcSpecs(6, /*worlds=*/50);
  for (int round = 0; round < 6; ++round) {
    ServerOptions options;
    options.max_batch_size = 4;
    options.max_batch_delay_ms = 0.2;
    QueryServer server(db(), index_.get(), options);

    constexpr int kClients = 3;
    constexpr int kPerClient = 8;
    std::vector<std::future<QueryOutcome>> futures(kClients * kPerClient);
    std::atomic<bool> go{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < kPerClient; ++i) {
          futures[c * kPerClient + i] =
              server.Submit(specs[(c + i) % specs.size()]);
        }
      });
    }
    go.store(true);
    // Stop lands at a different point of the submit stream each round.
    std::this_thread::sleep_for(std::chrono::microseconds(200 * round));
    server.Stop();
    for (auto& client : clients) client.join();

    size_t ok = 0, draining = 0;
    for (auto& f : futures) {
      const QueryOutcome outcome = f.get();  // must never hang
      if (outcome.status.ok()) {
        ++ok;
      } else {
        ASSERT_EQ(outcome.status.code(), StatusCode::kResourceLimit);
        ++draining;
      }
    }
    const ServerStats stats = server.Stats();
    EXPECT_EQ(stats.submitted, futures.size());
    EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
    EXPECT_EQ(stats.rejected,
              stats.rejected_invalid + stats.rejected_queue_full +
                  stats.rejected_shed + stats.rejected_draining);
    EXPECT_EQ(stats.admitted, stats.completed);
    EXPECT_EQ(ok, stats.admitted);
    EXPECT_EQ(draining, stats.rejected);
    EXPECT_EQ(stats.rejected_draining, stats.rejected);
  }
}

}  // namespace
}  // namespace ust
