// serve_bench — the repository's serving benchmark program (README.md next to
// this file explains the workloads and which layer metric should move which
// end-to-end metric).
//
// One process runs one workload end to end:
//
//   1. Inputs. A fixed synthetic world (states, network, observation
//      sequences) plus the workload's traffic, derived from --seed: query
//      references, intervals, Monte-Carlo seeds, arrival times and writes.
//      Generated before any clock starts.
//   2. Set-up, timed kSetupReps times (median reported): load the objects
//      into a fresh TrajectoryDatabase, EnsureAllPosteriors, UstTree::Build,
//      start the QueryServer. The last deployment serves the run.
//   3. Warm-up, then kRounds rounds that each run a closed loop (one
//      generator thread keeps W requests outstanding; throughput) and an
//      open loop (Poisson arrivals at a fixed rate; latency timed from each
//      request's due time). Each end-to-end figure is the median over the
//      rounds of that round's figure. On ingest_churn the same generator
//      thread interleaves database writes at a fixed interval throughout.
//   4. Output check. hot_repeat / cold_mix: a sample of served specs is
//      replayed serially through prepared QuerySession::Run at the same
//      epoch and must match bit for bit. ingest_churn: a check stream is
//      served after the churn and compared with an indexed session at the
//      final epoch (bitwise) and with an index-free session (answers).
//   5. With --trace=1, per-layer extras and one more deployment with
//      ServerOptions::trace on, whose closed loop gives the traced
//      throughput and the Chrome trace dump (--trace_out).
//
// Every layer is timed only through its public calls. The process writes a
// JSON report (--report); servebench/run.py turns it into the result line.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_delta.h"
#include "index/ust_tree.h"
#include "model/trajectory_database.h"
#include "query/session.h"
#include "server/query_server.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/stats.h"

using namespace ust;

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- constants

// The world is the same for every seed: the seed varies the traffic, so the
// set-up work (and setup_s) does not move with it. 160 objects over 10 000
// states make EnsureAllPosteriors alone take about a second.
constexpr size_t kStates = 10000;
constexpr size_t kObjects = 160;
constexpr Tic kLifetime = 96;
constexpr Tic kObsInterval = 12;
constexpr Tic kHorizon = 120;
constexpr uint64_t kWorldSeed = 11;

// Query intervals are longer than the planner's enumeration bound (6 tics),
// so every P∀NN/P∃NN spec plans onto Monte Carlo whatever its pruning
// output — plans cannot diverge between the lanes and the serial replay.
constexpr size_t kIntervalLength = 10;
constexpr size_t kHotIntervals = 4;    // < session_cache_capacity (8)
constexpr size_t kColdIntervals = 48;  // 6x session_cache_capacity
constexpr size_t kHotSeedPool = 2;     // (interval, seed) groups repeat
constexpr size_t kHotWorlds = 4000;
constexpr size_t kColdFixedWorlds = 1000;
constexpr size_t kAdaptiveCap = 4096;
constexpr size_t kPcnnWorlds = 400;

constexpr int kLanes = 2;
constexpr int kThreadsPerLane = 1;
constexpr size_t kSetupReps = 5;
constexpr size_t kMaxReplay = 600;     // served specs replayed per run
constexpr uint64_t kKeepEvery = 8;     // served outcomes kept for the replay
constexpr size_t kCheckStream = 120;   // ingest_churn post-churn check specs
constexpr auto kPollPeriod = std::chrono::microseconds(100);

// Share of --seconds spent in each measured phase.
constexpr double kWarmupShare = 0.10;
constexpr double kClosedShare = 0.30;
constexpr double kOpenShare = 0.60;
constexpr size_t kRounds = 15;  // alternating closed / open segments

/// \brief One benchmark workload: its traffic and load shape.
struct Workload {
  const char* name;
  bool cold;                 ///< cold_mix spec stream, else hot_repeat's
  size_t window;             ///< closed loop: requests kept outstanding (W)
  double open_rate_qps;      ///< open loop: Poisson arrival rate
  uint64_t requests_per_write;  ///< 0 = read-only
};

// Open-loop rates of the gated workloads sit at 25-40 % of the closed-loop
// capacity measured on a 4-vCPU Xeon container (gcc 12.2, Release);
// README.md says why not half, and why ingest_churn is not gated.
const Workload kWorkloads[] = {
    {"hot_repeat", false, 32, 170.0, 0},
    {"cold_mix", true, 32, 140.0, 0},
    {"ingest_churn", false, 32, 80.0, 150},
};

// ------------------------------------------------------------------ helpers

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {0};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {0};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// ------------------------------------------------------------------- inputs

struct ObjectInput {
  ObservationSeq observations;
  TransitionMatrixPtr matrix;
  Tic end_tic;
};

/// \brief The fixed world every deployment loads, plus the interval sets.
struct World {
  std::shared_ptr<const StateSpace> space;
  TransitionMatrixPtr matrix;
  std::vector<ObjectInput> objects;
  std::vector<TimeInterval> hot;
  std::vector<TimeInterval> cold;
  TimeInterval hot_union{0, 0};
};

World MakeWorld() {
  SyntheticConfig config;
  config.num_states = kStates;
  config.num_objects = kObjects;
  config.lifetime = kLifetime;
  config.obs_interval = kObsInterval;
  config.horizon = kHorizon;
  config.seed = kWorldSeed;
  auto generated = GenerateSyntheticWorld(config);
  UST_CHECK(generated.ok());
  SyntheticWorld synthetic = generated.MoveValue();
  const TrajectoryDatabase& db = *synthetic.db;

  World world;
  world.space = synthetic.space;
  world.matrix = synthetic.matrix;
  for (ObjectId id = 0; id < db.size(); ++id) {
    const UncertainObject& obj = db.object(id);
    world.objects.push_back({obj.observations(), obj.matrix_ptr(), obj.last_tic()});
  }
  // Hot intervals: the busiest window and its half-overlapping neighbours.
  const TimeInterval busiest = BusiestInterval(db, kIntervalLength);
  const Tic shift = static_cast<Tic>(kIntervalLength / 2);
  world.hot_union = busiest;
  for (size_t k = 0; k < kHotIntervals; ++k) {
    TimeInterval T = busiest;
    const Tic offset = static_cast<Tic>(k) * shift;
    if (T.start >= offset) {
      T.start -= offset;
      T.end -= offset;
    } else {
      T.start += offset;
      T.end += offset;
    }
    world.hot.push_back(T);
    world.hot_union.start = std::min(world.hot_union.start, T.start);
    world.hot_union.end = std::max(world.hot_union.end, T.end);
  }
  // Cold intervals: distinct starts spread evenly over the horizon.
  const Tic last_start = kHorizon - static_cast<Tic>(kIntervalLength);
  for (size_t k = 0; k < kColdIntervals; ++k) {
    const Tic start = static_cast<Tic>(
        (static_cast<double>(k) * last_start) / (kColdIntervals - 1) + 0.5);
    world.cold.push_back({start, start + static_cast<Tic>(kIntervalLength) - 1});
  }
  return world;
}

/// \brief The workload's query stream: spec i is a pure function of
/// (workload, seed, i), so the served stream and its replay agree however
/// many requests the timed phases manage to send.
class SpecSource {
 public:
  SpecSource(const World& world, const Workload& workload, uint64_t seed)
      : world_(world), workload_(workload), seed_(seed) {
    for (size_t j = 0; j < kHotSeedPool; ++j) {
      hot_seeds_.push_back(Mix(Mix(seed, 0x5eed), j));
    }
  }

  QuerySpec Make(uint64_t i) const {
    Rng rng(Mix(Mix(seed_, 0x51ec), i));
    return workload_.cold ? MakeCold(i, rng) : MakeHot(rng);
  }

 private:
  // P∀NN / P∃NN point queries with fixed worlds, Zipf over the hot
  // intervals, Monte-Carlo seeds from a small pool: every (interval, seed)
  // group repeats, so the sessions stay cached and the world arenas reused.
  QuerySpec MakeHot(Rng& rng) const {
    static const std::vector<double> kZipf = {1.0, 1.0 / 2, 1.0 / 3, 1.0 / 4};
    QuerySpec spec;
    spec.kind = rng.Bernoulli(0.5) ? QueryKind::kForall : QueryKind::kExists;
    spec.T = world_.hot[rng.Categorical(kZipf)];
    spec.q = RandomQueryState(*world_.space, rng);
    spec.tau = 0.05;
    spec.mc.num_worlds = kHotWorlds;
    spec.mc.seed = hot_seeds_[rng.UniformInt(kHotSeedPool)];
    return spec;
  }

  // Uniform over 48 intervals, a unique seed per spec: P∀NN fixed, P∃NN with
  // epsilon and threshold precision, and PCNN; point and trajectory
  // references.
  QuerySpec MakeCold(uint64_t i, Rng& rng) const {
    QuerySpec spec;
    spec.T = world_.cold[rng.UniformInt(world_.cold.size())];
    spec.q = rng.Bernoulli(0.5)
                 ? RandomQueryState(*world_.space, rng)
                 : RandomQueryTrajectory(*world_.space, *world_.matrix,
                                         spec.T.start, spec.T.length(), rng);
    spec.mc.seed = Mix(Mix(seed_, 0xc01d), i);
    const double u = rng.Uniform();
    if (u < 0.35) {
      spec.kind = QueryKind::kForall;
      spec.tau = 0.05;
      spec.mc.num_worlds = kColdFixedWorlds;
    } else if (u < 0.55) {
      spec.kind = QueryKind::kExists;
      spec.tau = 0.05;
      spec.mc.num_worlds = kAdaptiveCap;
      spec.precision.mode = PrecisionMode::kEpsilon;
      spec.precision.epsilon = 0.05;
    } else if (u < 0.80) {
      spec.kind = QueryKind::kExists;
      spec.tau = 0.3;
      spec.mc.num_worlds = kAdaptiveCap;
      spec.precision.mode = PrecisionMode::kThreshold;
    } else {
      spec.kind = QueryKind::kContinuous;
      spec.tau = 0.3;
      spec.mc.num_worlds = kPcnnWorlds;
    }
    return spec;
  }

  const World& world_;
  const Workload& workload_;
  uint64_t seed_;
  std::vector<uint64_t> hot_seeds_;
};

// ------------------------------------------------------------------ set-up

/// \brief One served deployment. Member order is destruction order in
/// reverse: the server stops before the tree and database it reads go away.
struct Deployment {
  std::unique_ptr<TrajectoryDatabase> db;
  std::unique_ptr<UstTree> tree;
  std::unique_ptr<QueryServer> server;
};

struct SetupTimes {
  std::vector<double> load_s, adapt_s, build_s, total_s;
};

ServerOptions MakeServerOptions(const Workload& workload, bool trace) {
  ServerOptions options;
  options.lanes = kLanes;
  options.threads = kThreadsPerLane;
  options.compaction = workload.requests_per_write > 0;
  options.compaction_interval_ms = 200.0;
  options.compaction_min_depth = 8;
  options.trace = trace;
  options.trace_events_per_thread = size_t{1} << 18;
  return options;
}

Deployment Setup(const World& world, const ServerOptions& options,
                 SetupTimes* times) {
  Deployment d;
  const Clock::time_point t0 = Clock::now();
  d.db = std::make_unique<TrajectoryDatabase>(world.space);
  for (const ObjectInput& obj : world.objects) {
    d.db->AddObject(obj.observations, obj.matrix, obj.end_tic);
  }
  const Clock::time_point t1 = Clock::now();
  UST_CHECK(d.db->EnsureAllPosteriors().ok());
  const Clock::time_point t2 = Clock::now();
  auto tree = UstTree::Build(*d.db);
  UST_CHECK(tree.ok());
  d.tree = std::make_unique<UstTree>(tree.MoveValue());
  const Clock::time_point t3 = Clock::now();
  d.server = std::make_unique<QueryServer>(*d.db, d.tree.get(), options);
  const Clock::time_point t4 = Clock::now();
  times->load_s.push_back(Seconds(t1 - t0));
  times->adapt_s.push_back(Seconds(t2 - t1));
  times->build_s.push_back(Seconds(t3 - t2));
  times->total_s.push_back(Seconds(t4 - t0));
  return d;
}

// ------------------------------------------------------------------ writers

/// \brief ingest_churn's write stream, applied by the generator thread
/// before every requests_per_write-th request, so the write rate follows the
/// request rate and every run interleaves the same writes at the same points
/// of its request stream. Every 4th write adds an object (a single
/// observation cloned from a donor, alive through every hot interval), the
/// others extend a seed object's lifetime by one or two tics.
class Writer {
 public:
  Writer(const World& world, TrajectoryDatabase* db, uint64_t seed,
         uint64_t base_version)
      : world_(world), db_(db), seed_(seed), base_version_(base_version) {
    for (const ObjectInput& obj : world.objects) end_tics_.push_back(obj.end_tic);
  }

  void ApplyOne() {
    Rng rng(Mix(Mix(seed_, 0x3417e), count_));
    const ObjectId donor = static_cast<ObjectId>(rng.UniformInt(world_.objects.size()));
    const Clock::time_point t0 = Clock::now();
    if (count_ % 4 == 3) {
      Observation obs;
      obs.time = world_.hot_union.start;
      obs.state = world_.objects[donor].observations.first().state;
      auto seq = ObservationSeq::Create({obs});
      UST_CHECK(seq.ok());
      db_->AddObject(seq.MoveValue(), world_.objects[donor].matrix,
                     world_.hot_union.end + 2);
    } else {
      end_tics_[donor] += 1 + static_cast<Tic>(rng.UniformInt(2));
      UST_CHECK(db_->ExtendLifetime(donor, end_tics_[donor]).ok());
    }
    write_us_.push_back(1e6 * Seconds(Clock::now() - t0));
    ++count_;
    // Depth a session admitted now must patch: objects written since the
    // freshest published base (or since the set-up tree before the first
    // compaction).
    const DbSnapshot snapshot = db_->Snapshot();
    const uint64_t base = snapshot.base_index() != nullptr
                              ? snapshot.base_index()->built_version()
                              : base_version_;
    delta_depth_max_ = std::max(delta_depth_max_, snapshot.DeltaDepth(base));
  }

  const std::vector<double>& write_us() const { return write_us_; }
  size_t delta_depth_max() const { return delta_depth_max_; }

 private:
  const World& world_;
  TrajectoryDatabase* db_;
  uint64_t seed_;
  uint64_t base_version_;
  std::vector<Tic> end_tics_;
  uint64_t count_ = 0;
  std::vector<double> write_us_;
  size_t delta_depth_max_ = 0;
};

// ------------------------------------------------------------ load generator

/// \brief Tallies over completed outcomes.
struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t candidates = 0;
  uint64_t influencers = 0;
  uint64_t mc = 0;  ///< OK Monte-Carlo outcomes
  uint64_t arena = 0;
  uint64_t worlds = 0;
  uint64_t adaptive = 0;  ///< OK outcomes of adaptive-precision specs
  uint64_t early_stops = 0;

  void Add(const QuerySpec& spec, const QueryOutcome& out) {
    ++attempted;
    if (!out.status.ok()) return;
    ++ok;
    if (out.kind == QueryKind::kContinuous) {
      candidates += out.pcnn.num_candidates;
      influencers += out.pcnn.num_influencers;
    } else {
      candidates += out.pnn.num_candidates;
      influencers += out.pnn.num_influencers;
    }
    if (out.executor == ExecutorKind::kMonteCarlo) {
      ++mc;
      arena += out.used_arena ? 1 : 0;
      worlds += out.worlds_used;
    }
    if (spec.precision.mode != PrecisionMode::kFixedWorlds &&
        spec.kind != QueryKind::kContinuous) {
      ++adaptive;
      early_stops += out.early_stopped ? 1 : 0;
    }
  }
};

/// \brief A served outcome kept for the replay check.
struct Served {
  uint64_t index;
  QueryOutcome outcome;
};

/// \brief The single generator thread: submits requests, collects outcomes
/// by polling their futures, and applies the writes.
class Generator {
 public:
  /// `writer` (may be nullptr) applies one write before every
  /// `requests_per_write`-th request.
  Generator(QueryServer* server, const SpecSource& specs, Writer* writer,
            uint64_t requests_per_write)
      : server_(server), specs_(specs), writer_(writer),
        requests_per_write_(requests_per_write) {}

  struct Phase {
    uint64_t completed_in_window = 0;
    double window_s = 0.0;
    std::vector<double> latency_ms;  ///< open loop: completion - due
    std::vector<double> lag_ms;      ///< open loop: submit - due
  };

  /// Keep `window` requests outstanding for `seconds`, then drain.
  Phase RunClosed(size_t window, double seconds, bool record) {
    Phase phase;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    while (true) {
      const Clock::time_point now = Clock::now();
      Collect([&](const Pending&, Clock::time_point done) {
        if (done <= end) ++phase.completed_in_window;
      });
      if (now < end) {
        while (pending_.size() < window) {
          Submit(now, record);
        }
      } else if (pending_.empty()) {
        break;
      }
      Wait(now + kPollPeriod);
    }
    phase.window_s = Seconds(end - start);
    return phase;
  }

  /// Submit at `arrivals` (seconds after the phase start), then drain.
  Phase RunOpen(const std::vector<double>& arrivals, bool record) {
    Phase phase;
    const Clock::time_point start = Clock::now();
    size_t next = 0;
    const auto due_of = [&](size_t i) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(arrivals[i]));
    };
    while (next < arrivals.size() || !pending_.empty()) {
      const Clock::time_point now = Clock::now();
      Collect([&](const Pending& p, Clock::time_point done) {
        phase.latency_ms.push_back(1e3 * Seconds(done - p.due));
      });
      while (next < arrivals.size() && due_of(next) <= now) {
        const Clock::time_point due = due_of(next);
        Submit(due, record);
        phase.lag_ms.push_back(1e3 * Seconds(pending_.back().submitted - due));
        ++next;
      }
      Clock::time_point wake = now + kPollPeriod;
      if (next < arrivals.size()) wake = std::min(wake, due_of(next));
      Wait(wake);
    }
    return phase;
  }

  const Tally& tally() const { return tally_; }
  const std::vector<Served>& served() const { return served_; }
  const std::vector<double>& submit_us() const { return submit_us_; }

 private:
  struct Pending {
    uint64_t index;
    Clock::time_point due;
    Clock::time_point submitted;
    QuerySpec spec;
    std::future<QueryOutcome> future;
    bool record;  ///< false during warm-up
  };

  void Submit(Clock::time_point due, bool record) {
    Pending p;
    p.index = next_index_++;
    p.record = record;
    if (writer_ != nullptr && p.index % requests_per_write_ == 0) writer_->ApplyOne();
    p.due = due;
    p.spec = specs_.Make(p.index);
    const Clock::time_point t0 = Clock::now();
    p.future = server_->Submit(p.spec);
    p.submitted = Clock::now();
    if (record) submit_us_.push_back(1e6 * Seconds(p.submitted - t0));
    pending_.push_back(std::move(p));
  }

  template <typename OnDone>
  void Collect(OnDone on_done) {
    for (size_t k = 0; k < pending_.size();) {
      if (pending_[k].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++k;
        continue;
      }
      const Clock::time_point done = Clock::now();
      QueryOutcome out = pending_[k].future.get();
      if (pending_[k].record) {
        on_done(pending_[k], done);
        tally_.Add(pending_[k].spec, out);
        if (pending_[k].index % kKeepEvery == 0) {
          served_.push_back({pending_[k].index, std::move(out)});
        }
      }
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(k));
    }
  }

  /// Sleep until `wake` or until the oldest outstanding request completes.
  void Wait(Clock::time_point wake) {
    if (!pending_.empty()) {
      pending_.front().future.wait_until(wake);
    } else {
      std::this_thread::sleep_until(wake);
    }
  }

  QueryServer* server_;
  const SpecSource& specs_;
  Writer* writer_;
  uint64_t requests_per_write_;
  uint64_t next_index_ = 0;
  std::vector<Pending> pending_;
  Tally tally_;
  std::vector<Served> served_;
  std::vector<double> submit_us_;
};

std::vector<double> PoissonArrivals(double rate_qps, double seconds, uint64_t seed) {
  Rng rng(Mix(seed, 0xa771));
  std::vector<double> arrivals;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform()) / rate_qps;
    if (t >= seconds) break;
    arrivals.push_back(t);
  }
  return arrivals;
}

// ------------------------------------------------------------- output check

/// Bitwise comparison. `full` also compares the execution record (executor,
/// worlds, early stop, pruning sizes); without it only the answer (status,
/// objects, probabilities) — an index-free session prunes differently.
bool SameOutcome(const QueryOutcome& a, const QueryOutcome& b, bool full) {
  if (a.status.code() != b.status.code() || a.kind != b.kind) return false;
  if (!a.status.ok()) return true;
  if (a.executor != b.executor) return false;
  if (full && (a.worlds_used != b.worlds_used ||
               a.early_stopped != b.early_stopped ||
               a.pnn.num_candidates != b.pnn.num_candidates ||
               a.pnn.num_influencers != b.pnn.num_influencers ||
               a.pcnn.num_candidates != b.pcnn.num_candidates ||
               a.pcnn.num_influencers != b.pcnn.num_influencers)) {
    return false;
  }
  if (a.pnn.results.size() != b.pnn.results.size() ||
      a.pcnn.pcnn.entries.size() != b.pcnn.pcnn.entries.size()) {
    return false;
  }
  for (size_t j = 0; j < a.pnn.results.size(); ++j) {
    if (a.pnn.results[j].object != b.pnn.results[j].object ||
        std::memcmp(&a.pnn.results[j].prob, &b.pnn.results[j].prob,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  for (size_t j = 0; j < a.pcnn.pcnn.entries.size(); ++j) {
    const PcnnEntry& x = a.pcnn.pcnn.entries[j];
    const PcnnEntry& y = b.pcnn.pcnn.entries[j];
    if (x.object != y.object || x.tics != y.tics ||
        std::memcmp(&x.prob, &y.prob, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// A fixed-worlds spec the overload controller switched to epsilon precision
/// (it stopped before its cap): not reproducible from the submitted spec.
bool Degraded(const QuerySpec& spec, const QueryOutcome& out) {
  return out.status.ok() && spec.kind != QueryKind::kContinuous &&
         spec.precision.mode == PrecisionMode::kFixedWorlds &&
         out.executor == ExecutorKind::kMonteCarlo &&
         (out.early_stopped ||
          (out.worlds_used != 0 && out.worlds_used != spec.mc.num_worlds));
}

struct CheckResult {
  uint64_t compared = 0;
  uint64_t mismatches = 0;
  uint64_t degraded = 0;
  std::vector<double> run_us;      ///< QuerySession::Run per replayed spec
  std::vector<double> prepare_ms;  ///< construct + Prepare + WarmInterval
};

/// Build a session the way the serving tier's cache does, timed.
std::unique_ptr<QuerySession> TimedSession(const DbSnapshot& snapshot,
                                           const UstTree* index,
                                           const TimeInterval& T,
                                           CheckResult* check) {
  const Clock::time_point t0 = Clock::now();
  auto session = std::make_unique<QuerySession>(snapshot, index, SessionOptions{});
  UST_CHECK(session->Prepare().ok());
  session->WarmInterval(T);
  check->prepare_ms.push_back(1e3 * Seconds(Clock::now() - t0));
  return session;
}


/// Replay `specs` serially through one prepared session per interval over
/// `snapshot` — the serving tier's (epoch, interval) keying — in order per
/// interval, and compare each with its served outcome bit for bit, execution
/// record included. With `unindexed`, the answer must also match that
/// index-free session's (its pruning sizes legitimately differ).
CheckResult Replay(const std::vector<QuerySpec>& specs,
                   const std::vector<const QueryOutcome*>& served,
                   const DbSnapshot& snapshot, const UstTree* index,
                   QuerySession* unindexed) {
  CheckResult check;
  std::vector<size_t> order(specs.size());
  for (size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return specs[a].T.start < specs[b].T.start;
  });
  std::unique_ptr<QuerySession> session;
  TimeInterval session_T{0, 0};
  for (size_t j : order) {
    const QuerySpec& spec = specs[j];
    if (session == nullptr || !(spec.T == session_T)) {
      session = TimedSession(snapshot, index, spec.T, &check);
      session_T = spec.T;
    }
    if (Degraded(spec, *served[j])) {
      ++check.degraded;
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    const QueryOutcome replay = session->Run(spec);
    check.run_us.push_back(1e6 * Seconds(Clock::now() - t0));
    ++check.compared;
    if (!SameOutcome(*served[j], replay, /*full=*/true) ||
        (unindexed != nullptr &&
         !SameOutcome(*served[j], unindexed->Run(spec), /*full=*/false))) {
      ++check.mismatches;
    }
  }
  return check;
}

/// hot_repeat / cold_mix: replay the kept served outcomes, evenly thinned to
/// kMaxReplay, at the (unchanged) serving epoch.
CheckResult CheckServed(const std::vector<Served>& served, const SpecSource& specs,
                        const DbSnapshot& snapshot, const UstTree* index) {
  const size_t stride =
      std::max<size_t>(1, (served.size() + kMaxReplay - 1) / kMaxReplay);
  std::vector<QuerySpec> picked;
  std::vector<const QueryOutcome*> outcomes;
  for (size_t k = 0; k < served.size(); k += stride) {
    picked.push_back(specs.Make(served[k].index));
    outcomes.push_back(&served[k].outcome);
  }
  return Replay(picked, outcomes, snapshot, index, nullptr);
}

/// ingest_churn: after the writes stop, serve a check stream at the final
/// epoch and replay it over the index the serving tier would pick (the
/// freshest of the set-up tree and the compacted base) and index-free.
CheckResult CheckAfterChurn(QueryServer* server, const SpecSource& specs,
                            const TrajectoryDatabase& db, const UstTree* tree) {
  const uint64_t base = uint64_t{1} << 40;  // disjoint from the served stream
  std::vector<QuerySpec> stream;
  for (size_t j = 0; j < kCheckStream; ++j) stream.push_back(specs.Make(base + j));
  std::vector<std::future<QueryOutcome>> futures;
  for (const QuerySpec& spec : stream) futures.push_back(server->Submit(spec));
  std::vector<QueryOutcome> served;
  for (auto& f : futures) served.push_back(f.get());
  std::vector<const QueryOutcome*> outcomes;
  for (const QueryOutcome& out : served) outcomes.push_back(&out);

  const DbSnapshot snapshot = db.Snapshot();
  const UstTree* index = tree;
  if (snapshot.base_index() != nullptr &&
      snapshot.base_index()->built_version() > tree->built_version()) {
    index = snapshot.base_index().get();
  }
  QuerySession unindexed(snapshot, nullptr, SessionOptions{});
  UST_CHECK(unindexed.Prepare().ok());
  return Replay(stream, outcomes, snapshot, index, &unindexed);
}

void Teardown(Deployment* d) {
  d->server.reset();
  d->tree.reset();
  d->db.reset();
}

/// \brief One named measurement of the report.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;
};

/// The measured load of one deployment: warm-up, then kRounds alternating
/// closed- and open-loop segments, so both loops sample the whole run
/// rather than one end of it (the host's speed drifts over seconds). Figures
/// are kept per round so that the report takes their median: a round that a
/// host stall slowed moves it far less than it moves a pooled quantile.
struct LoadResult {
  uint64_t closed_completed = 0;      ///< completions inside closed windows
  std::vector<double> closed_qps;     ///< per round
  size_t latency_samples = 0;         ///< open-loop requests, all rounds
  std::vector<double> latency_p50_ms; ///< per round, completion - due
  std::vector<double> latency_p99_ms; ///< per round, completion - due
  std::vector<double> lag_ms;         ///< open loop, submit - due
  double cpu_s = 0.0;
};

LoadResult DriveLoad(Generator* gen, const Workload& workload, double seconds,
                     double rate, uint64_t seed, bool open_loop) {
  LoadResult load;
  gen->RunClosed(workload.window, seconds * kWarmupShare, /*record=*/false);
  const double cpu0 = CpuSeconds();
  for (size_t round = 0; round < kRounds; ++round) {
    const Generator::Phase closed =
        gen->RunClosed(workload.window, seconds * kClosedShare / kRounds, true);
    load.closed_completed += closed.completed_in_window;
    load.closed_qps.push_back(static_cast<double>(closed.completed_in_window) /
                              closed.window_s);
    if (!open_loop) continue;
    const Generator::Phase open = gen->RunOpen(
        PoissonArrivals(rate, seconds * kOpenShare / kRounds, Mix(seed, round)),
        true);
    load.latency_samples += open.latency_ms.size();
    load.latency_p50_ms.push_back(Quantile(open.latency_ms, 0.50));
    load.latency_p99_ms.push_back(Quantile(open.latency_ms, 0.99));
    load.lag_ms.insert(load.lag_ms.end(), open.lag_ms.begin(), open.lag_ms.end());
  }
  load.cpu_s = CpuSeconds() - cpu0;
  return load;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "serve_bench: unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  const Workload& workload = *found;
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool traced = flags.GetInt("trace", 0) != 0;
  const double rate = workload.open_rate_qps;
  const std::string report_path = flags.GetString("report", "serve_bench_report.json");
  const std::string trace_path = flags.GetString("trace_out", "serve_bench_trace.json");
  if (!(seconds > 0.0)) {
    std::fprintf(stderr, "serve_bench: --seconds must be positive\n");
    return 2;
  }
  const bool writes = workload.requests_per_write > 0;

  const Clock::time_point run_start = Clock::now();
  const auto progress = [&](const char* what) {
    std::fprintf(stderr, "serve_bench: %-14s %7.2f s\n", what,
                 Seconds(Clock::now() - run_start));
  };

  // ---- Inputs (untimed).
  const World world = MakeWorld();
  const SpecSource specs(world, workload, seed);

  // ---- Set-up, kSetupReps times; the last deployment serves.
  SetupTimes setup;
  Deployment d;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    Teardown(&d);
    d = Setup(world, MakeServerOptions(workload, false), &setup);
  }
  const Clock::time_point server_start = Clock::now();
  progress("set-up");

  // ---- Load.
  std::unique_ptr<Writer> writer;
  if (writes) {
    writer = std::make_unique<Writer>(world, d.db.get(), seed, d.tree->built_version());
  }
  Generator gen(d.server.get(), specs, writer.get(), workload.requests_per_write);
  const LoadResult load = DriveLoad(&gen, workload, seconds, rate, seed, true);
  const double server_wall_s = Seconds(Clock::now() - server_start);
  const ServerStats stats = d.server->Stats();
  const Tally& tally = gen.tally();
  progress("load");

  // ---- Output check.
  CheckResult check;
  std::vector<double> delta_build_ms;
  if (writes) {
    check = CheckAfterChurn(d.server.get(), specs, *d.db, d.tree.get());
    if (traced) {
      const DbSnapshot final_snapshot = d.db->Snapshot();
      for (int rep = 0; rep < 3; ++rep) {
        const Clock::time_point t0 = Clock::now();
        auto delta = UstDelta::Build(final_snapshot, d.tree->built_version());
        delta_build_ms.push_back(1e3 * Seconds(Clock::now() - t0));
        UST_CHECK(delta.ok());
      }
    }
  } else {
    check = CheckServed(gen.served(), specs, d.db->Snapshot(), d.tree.get());
  }
  Teardown(&d);
  const double peak_rss_mb = PeakRssMb();
  progress("check");

  // ---- Metrics.
  const double closed_qps = Median(load.closed_qps);
  LatencyHistogram lane_exec;
  for (const LaneStats& lane : stats.lanes) lane_exec.Merge(lane.exec_micros);
  const double completed = static_cast<double>(tally.attempted);
  const uint64_t lookups = stats.cache.hits + stats.cache.misses;
  const std::vector<double> empty;
  const std::vector<double>& write_us = writer ? writer->write_us() : empty;

  std::vector<Metric> metrics = {
      // End to end.
      {"throughput_qps", closed_qps, "1/s", load.closed_completed},
      {"latency_p50_ms", Median(load.latency_p50_ms), "ms", load.latency_samples},
      {"latency_p99_ms", Median(load.latency_p99_ms), "ms", load.latency_samples},
      {"ok_ratio", Ratio(static_cast<double>(tally.ok), completed), "ratio",
       tally.attempted},
      {"setup_s", Median(setup.total_s), "s", setup.total_s.size()},
      {"peak_rss_mb", peak_rss_mb, "MB", 1},
      // model
      {"model.load_s", Median(setup.load_s), "s", setup.load_s.size()},
      {"model.adapt_s", Median(setup.adapt_s), "s", setup.adapt_s.size()},
      {"model.write_us_p50", Quantile(write_us, 0.5), "us", write_us.size()},
      {"model.writes", static_cast<double>(write_us.size()), "count", 1},
      // index
      {"index.build_s", Median(setup.build_s), "s", setup.build_s.size()},
      {"index.delta_build_ms", Median(delta_build_ms), "ms", delta_build_ms.size()},
      {"index.compactions", static_cast<double>(stats.compactions), "count", 1},
      {"index.delta_depth_max",
       static_cast<double>(writer ? writer->delta_depth_max() : 0), "count",
       write_us.size()},
      {"index.candidates_per_query",
       Ratio(static_cast<double>(tally.candidates), static_cast<double>(tally.ok)),
       "count", tally.ok},
      {"index.influencers_per_query",
       Ratio(static_cast<double>(tally.influencers), static_cast<double>(tally.ok)),
       "count", tally.ok},
      // query
      {"query.run_us_p50", Quantile(check.run_us, 0.5), "us", check.run_us.size()},
      {"query.session_prepare_ms", Quantile(check.prepare_ms, 0.5), "ms",
       check.prepare_ms.size()},
      {"query.arena_hit_ratio",
       Ratio(static_cast<double>(tally.arena), static_cast<double>(tally.mc)),
       "ratio", tally.mc},
      {"query.arena_builds", static_cast<double>(stats.cache.arena_builds), "count", 1},
      {"query.worlds_per_query",
       Ratio(static_cast<double>(tally.worlds), static_cast<double>(tally.mc)),
       "count", tally.mc},
      {"query.early_stop_ratio",
       Ratio(static_cast<double>(tally.early_stops), static_cast<double>(tally.adaptive)),
       "ratio", tally.adaptive},
      // server
      {"server.submit_us_p99", Quantile(gen.submit_us(), 0.99), "us",
       gen.submit_us().size()},
      {"server.queue_us_p50", stats.queue_micros.Quantile(0.50), "us",
       stats.queue_micros.count()},
      {"server.queue_us_p99", stats.queue_micros.Quantile(0.99), "us",
       stats.queue_micros.count()},
      {"server.avg_batch_size",
       Ratio(static_cast<double>(stats.admitted), static_cast<double>(stats.batches)),
       "count", stats.batches},
      {"server.flush_deadline_ratio",
       Ratio(static_cast<double>(stats.flush_deadline), static_cast<double>(stats.batches)),
       "ratio", stats.batches},
      {"server.lane_exec_us_p50", lane_exec.Quantile(0.50), "us", lane_exec.count()},
      {"server.lane_idle_ratio",
       Ratio(1e-6 * static_cast<double>(stats.lane_idle_micros()),
             kLanes * server_wall_s),
       "ratio", static_cast<uint64_t>(kLanes)},
      {"server.steals", static_cast<double>(stats.lane_steals()), "count", 1},
      {"server.morsels", static_cast<double>(stats.morsels_executed()), "count", 1},
      {"server.cache_hit_ratio",
       Ratio(static_cast<double>(stats.cache.hits), static_cast<double>(lookups)),
       "ratio", lookups},
      {"server.session_builds", static_cast<double>(stats.cache.misses), "count", 1},
      {"server.rejected", static_cast<double>(stats.rejected), "count", 1},
      {"server.expired",
       static_cast<double>(stats.expired_in_queue + stats.expired_on_lane), "count", 1},
      {"server.degraded", static_cast<double>(stats.degraded_requests), "count", 1},
      // proc and gen
      {"proc.cpu_ms_per_query", Ratio(1e3 * load.cpu_s, completed), "ms", tally.attempted},
      {"gen.lag_ms_p99", Quantile(load.lag_ms, 0.99), "ms", load.lag_ms.size()},
  };

  // ---- Traced run: one more deployment with the tracer on.
  JsonWriter trace_json;
  if (traced) {
    SetupTimes traced_setup;
    Deployment td = Setup(world, MakeServerOptions(workload, true), &traced_setup);
    std::unique_ptr<Writer> traced_writer;
    if (writes) {
      traced_writer = std::make_unique<Writer>(world, td.db.get(), seed,
                                               td.tree->built_version());
    }
    Generator traced_gen(td.server.get(), specs, traced_writer.get(),
                         workload.requests_per_write);
    const LoadResult traced_load =
        DriveLoad(&traced_gen, workload, seconds, rate, seed, /*open_loop=*/false);
    td.server->Stop();
    const ServerStats traced_stats = td.server->Stats();
    UST_CHECK(td.server->DumpTrace(trace_path));
    const double traced_qps = Median(traced_load.closed_qps);
    trace_json.String("file", trace_path);
    trace_json.Double("untraced_qps", closed_qps);
    trace_json.Double("traced_qps", traced_qps);
    trace_json.Uint("arena_builds", traced_stats.cache.arena_builds);
    trace_json.Uint("session_builds", traced_stats.cache.misses);
    trace_json.Uint("compactions", traced_stats.compactions);
    trace_json.Uint("dropped", traced_stats.trace_dropped);
    Teardown(&td);
    progress("traced run");
  }

  // ---- Report.
  JsonWriter stamp;
  stamp.Uint("nproc", std::thread::hardware_concurrency());
  stamp.String("cpu_model", CpuModel());
  stamp.String("compiler", Compiler());
  stamp.String("build_type", SERVEBENCH_BUILD_TYPE);
  stamp.String("simd", SimdLevelName(ActiveSimdLevel()));
  stamp.Uint("seed", seed);
  stamp.Uint("closed_window", workload.window);
  stamp.Double("open_rate_qps", rate);
  stamp.Uint("requests_per_write", workload.requests_per_write);
  stamp.Int("lanes", kLanes);
  stamp.Int("threads_per_lane", kThreadsPerLane);
  stamp.Uint("setup_reps", kSetupReps);
  stamp.Double("seconds", seconds);

  std::vector<std::string> rendered;
  for (const Metric& m : metrics) {
    JsonWriter item;
    item.String("name", m.name);
    item.Double("value", m.value, "%.17g");
    item.String("unit", m.unit);
    item.Uint("samples", m.samples);
    rendered.push_back(item.Render());
  }
  JsonWriter report;
  report.String("workload", workload.name);
  report.Raw("stamp", stamp.Render());
  report.Uint("attempted", tally.attempted);
  report.Uint("failed", tally.attempted - tally.ok);
  report.Uint("compared", check.compared);
  report.Uint("mismatches", check.mismatches);
  report.Uint("degraded_excluded", check.degraded);
  report.Raw("metrics", JsonWriter::Array(rendered));
  if (traced) report.Raw("trace", trace_json.Render());
  std::ofstream out(report_path);
  out << report.Render(/*pretty=*/true) << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "serve_bench: cannot write %s\n", report_path.c_str());
    return 2;
  }
  return 0;
}
