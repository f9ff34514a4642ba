// The benchmark's workload program: runs one benchmark workload in this
// process and prints one JSON object with the per-operation records
// (timings and quality figures), the correctness checks and, when
// tracing, the in-memory spans and the layer legs. run.py turns these
// records into the benchmark's metrics; see README.md for the workloads
// and metrics.
//
//   perfbench_workload --workload NAME --seed N --seconds S --trace 0|1
//                      [--ops N]
//
// --ops fixes the operation count (run.py's untraced reference for the
// tracing overhead); otherwise a run is time-bound, see measure().
//
// Every timing is taken here, around calls into the library's public
// functions; nothing inside the library is instrumented.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/count.hpp"
#include "core/update.hpp"
#include "experiment/cycle_sim.hpp"
#include "experiment/engine.hpp"
#include "experiment/intra_rep.hpp"
#include "experiment/parallel_runner.hpp"
#include "failure/comm_failure.hpp"
#include "failure/failure_plan.hpp"
#include "membership/newscast.hpp"
#include "overlay/sharded_population.hpp"
#include "proto/messages.hpp"
#include "proto/wire.hpp"
#include "runtime/executor.hpp"
#include "runtime/transport.hpp"
#include "stats/convergence.hpp"
#include "stats/reduction.hpp"
#include "stats/running_stats.hpp"
#include "stats/summary.hpp"

namespace {

using namespace gossip;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------------ JSON

/// json::Value refuses non-finite numbers; they become null (a failed
/// check reports the value, the metric does not).
json::Value number(double v) {
  return std::isfinite(v) ? json::Value(v) : json::Value(nullptr);
}

void put(json::Object& object, const char* key, double v) {
  object.emplace_back(key, number(v));
}

// --------------------------------------------------------------- tracing

/// In-memory span recorder. Disabled, a Scope costs one branch; enabled,
/// it records (name, parent, start, end) and the spans are written out
/// with the result when the run ends.
class Tracer {
public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  class Scope {
  public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      index_ = static_cast<int>(tracer_.spans_.size());
      tracer_.spans_.push_back(
          {name, tracer_.open_, tracer_.now(), 0.0});
      tracer_.open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      tracer_.spans_[static_cast<std::size_t>(index_)].end = tracer_.now();
      tracer_.open_ = tracer_.spans_[static_cast<std::size_t>(index_)].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer& tracer_;
    int index_ = -1;
  };

  /// Spans with their self time: duration minus the part of the interval
  /// covered by direct children (children never overlap — one thread).
  [[nodiscard]] json::Value dump() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    json::Array out;
    out.reserve(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out.emplace_back(json::Object{
          {"name", s.name},
          {"parent", s.parent},
          {"start_s", number(s.start)},
          {"end_s", number(s.end)},
          {"self_s", number((s.end - s.start) - child[i])}});
    }
    return out;
  }

private:
  struct Span {
    std::string name;
    int parent;
    double start;
    double end;
  };
  [[nodiscard]] double now() const {
    return seconds_between(origin_, Clock::now());
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

// ---------------------------------------------------------------- checks

/// Check outcomes: every check is counted, only failures are recorded.
struct Checks {
  json::Array records;
  std::size_t run = 0;
  bool all_ok = true;

  void add(const std::string& name, bool ok, const std::string& detail) {
    ++run;
    all_ok = all_ok && ok;
    if (ok) return;
    records.emplace_back(
        json::Object{{"name", name}, {"detail", detail}});
  }
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

/// Long double accumulation in a fixed order, so the conservation check
/// adds far less rounding than it tolerates.
long double sum_of(const std::vector<double>& values) {
  long double s = 0.0L;
  for (double v : values) s += v;
  return s;
}

bool all_finite(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

/// Relative tolerance on AVERAGE mass conservation: pairwise averaging
/// rounds each (a+b)/2 once, so the global sum drifts by a few ulps per
/// exchange, never more.
constexpr double kConservationTolerance = 1e-9;

/// COUNT accuracy under churn and 20% loss: the median robust size
/// estimate must lie within this factor of the live network size. Loss
/// moves mass at random, so the error has a heavy tail (over 30 seeds:
/// median 8%, 90th percentile 18%, largest 35%); a broken merge or update
/// is off by far more, or not finite.
constexpr double kCountFactor = 2.0;

// -------------------------------------------------------------- workloads

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint32_t ops = 0;  ///< fixed operation count; 0 = time-bound
};

/// One measured operation: one repetition of a simulator workload, or
/// one epoch of the deployment runtime.
struct OpRecord {
  double setup_s = 0.0;      ///< driver constructor + state initialisation
  double run_s = 0.0;        ///< the cycles
  double stats_s = 0.0;      ///< reading results and checking them
  double wall_s = 0.0;       ///< the whole operation
  double node_cycles = 0.0;  ///< live nodes x cycles
  double exchanges = 0.0;    ///< aggregation exchanges (see README)
  double conv_factor = 0.0;
  double count_rel_error = 0.0;  ///< COUNT only
  double participants = 0.0;
  /// Operations the result line counts: 1 per simulator repetition, the
  /// epoch's initiated exchanges on the runtime.
  std::uint64_t attempted = 1;
  /// Of those, the ones that failed: all of them when a check failed,
  /// else (runtime) pushes that got no answer at all.
  std::uint64_t failed = 0;
  bool ok = true;

  [[nodiscard]] json::Value dump() const {
    return json::Object{{"setup_s", number(setup_s)},
                        {"run_s", number(run_s)},
                        {"stats_s", number(stats_s)},
                        {"wall_s", number(wall_s)},
                        {"node_cycles", number(node_cycles)},
                        {"exchanges", number(exchanges)},
                        {"conv_factor", number(conv_factor)},
                        {"count_rel_error", number(count_rel_error)},
                        {"participants", number(participants)},
                        {"attempted", attempted},
                        {"failed", failed},
                        {"ok", ok}};
  }
};

struct WorkloadDef {
  const char* name;
  /// Operations always run, whatever --seconds says; the quality figures
  /// come from exactly these, so they are a pure function of the seed.
  std::uint32_t min_ops;
  /// Operations a traced run makes (the traced pass is not time-bound).
  std::uint32_t traced_ops;
  /// Worker threads the workload uses.
  unsigned threads;
  /// Approximate bytes of per-node state, for working set ÷ L3.
  double working_set_bytes;
};

constexpr std::uint32_t kCacheNodes = 10'000;
constexpr std::uint32_t kGiantNodes = 1'000'000;
constexpr std::uint32_t kCountNodes = 100'000;
constexpr std::uint32_t kRuntimeNodes = 10'000;
constexpr std::uint32_t kCacheSize = 30;
constexpr std::uint32_t kCountInstances = 10;
constexpr std::uint32_t kChurnRate = 1'000;
constexpr double kCountLoss = 0.2;
constexpr unsigned kGiantShards = 2;
constexpr unsigned kGiantThreads = 2;
constexpr std::uint32_t kRuntimeWorkers = 2;
/// Keeps the giant workload's value stream apart from the simulator's
/// own Rng(seed).
constexpr std::uint64_t kGiantValuesSalt = 0x7a1d'93c4'e05b'62f1ULL;
/// Every time-bound run sets its driver up at least this many times,
/// so setup_s is a median even where one operation fills the run.
constexpr std::size_t kMinSetupSamples = 3;

/// Cache pool (c × 8-byte descriptors) + estimate slots + flags.
constexpr double node_bytes(std::uint32_t slots) {
  return kCacheSize * 8.0 + 8.0 * slots + 16.0;
}

const WorkloadDef kWorkloads[] = {
    {"avg_cache", 16, 8, 1, kCacheNodes * node_bytes(1)},
    {"avg_giant", 1, 1, kGiantThreads, kGiantNodes * (node_bytes(1) + 64.0)},
    {"count_churn_loss", 3, 1, 1, kCountNodes * node_bytes(kCountInstances)},
    {"runtime_w2", 6, 2, kRuntimeWorkers,
     kRuntimeNodes * (node_bytes(1) + 64.0)},
};

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct WorkloadResult {
  std::vector<OpRecord> ops;
  std::vector<double> setup_samples;  ///< every setup_s measured
  Checks checks;
  json::Object counters;  ///< workload-specific raw counts
};

/// Moves the calling thread to one allowed CPU after another. On a shared
/// host the cores' speed differs by up to a third and the pattern moves
/// within seconds, so a serial workload left on one core measures that
/// core's neighbours; stepping every operation to the next core makes
/// each run sample all of them. The destructor restores the original
/// affinity.
class CpuRotation {
public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the `step`-th allowed CPU (cyclically).
  void pin(std::uint32_t step) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

/// The measurement skeleton every workload shares. `setup(r)` builds the
/// driver for operation r and returns it owned; `run(state)` executes
/// the cycles; `collect(state, rec, checks)` reads the results into the
/// record and adds the operation's checks. Runs operations until both
/// `min_ops` ran and `seconds` elapsed (or exactly --ops / traced_ops of
/// them), then sets up alone until kMinSetupSamples setups were timed.
/// Serial workloads step to the next CPU before each operation.
template <typename Setup, typename Run, typename Collect>
WorkloadResult measure(const Args& args, const WorkloadDef& def,
                       Tracer& tracer, Setup&& setup, Run&& run,
                       Collect&& collect) {
  WorkloadResult out;
  const CpuRotation rotation;
  const auto next_cpu = [&](std::uint32_t r) {
    if (def.threads == 1) rotation.pin(r);
  };
  std::uint32_t fixed_ops = args.ops;
  if (fixed_ops == 0 && args.trace) fixed_ops = def.traced_ops;
  const auto start = Clock::now();
  for (std::uint32_t r = 0;; ++r) {
    if (fixed_ops != 0 ? r >= fixed_ops
                       : r >= def.min_ops &&
                             seconds_between(start, Clock::now()) >=
                                 args.seconds) {
      break;
    }
    next_cpu(r);
    Tracer::Scope op_span(tracer, "op");
    OpRecord rec;
    const auto t0 = Clock::now();
    auto state = [&] {
      Tracer::Scope s(tracer, "experiment.setup");
      return setup(r);
    }();
    const auto t1 = Clock::now();
    {
      Tracer::Scope s(tracer, "experiment.run");
      run(*state);
    }
    const auto t2 = Clock::now();
    {
      Tracer::Scope s(tracer, "stats.collect");
      Checks op_checks;
      collect(*state, rec, op_checks, "op" + std::to_string(r));
      rec.ok = op_checks.all_ok;
      if (!rec.ok) rec.failed = rec.attempted;
      out.checks.run += op_checks.run;
      out.checks.all_ok = out.checks.all_ok && rec.ok;
      for (auto& c : op_checks.records) out.checks.records.push_back(c);
    }
    const auto t3 = Clock::now();
    rec.setup_s = seconds_between(t0, t1);
    rec.run_s = seconds_between(t1, t2);
    rec.stats_s = seconds_between(t2, t3);
    rec.wall_s = seconds_between(t0, t3);
    out.setup_samples.push_back(rec.setup_s);
    out.ops.push_back(rec);
  }
  if (fixed_ops == 0) {
    for (auto r = static_cast<std::uint32_t>(out.ops.size());
         out.setup_samples.size() < kMinSetupSamples; ++r) {
      next_cpu(r);
      const auto t0 = Clock::now();
      auto state = setup(r);
      out.setup_samples.push_back(seconds_between(t0, Clock::now()));
    }
  }
  return out;
}

experiment::SimConfig average_config(std::uint32_t nodes,
                                     std::uint32_t cycles) {
  experiment::SimConfig cfg;
  cfg.nodes = nodes;
  cfg.cycles = cycles;
  cfg.topology = experiment::TopologyConfig::newscast(kCacheSize);
  return cfg;
}

/// Aggregation exchanges initiated on a cycle driver: every counted
/// participant initiates exactly one per cycle.
template <typename Sim>
double initiated_exchanges(const Sim& sim) {
  double n = 0.0;
  const auto& per_cycle = sim.cycle_stats();
  for (std::size_t c = 1; c < per_cycle.size(); ++c) {
    n += static_cast<double>(per_cycle[c].count());
  }
  return n;
}

/// The AVERAGE reading shared by both cycle drivers: factor, throughput
/// counts, and the checks — mass conserved against the `initial` global
/// sum, estimates finite, factor in (0, 1).
template <typename Sim>
void collect_average(const Sim& sim, double initial, std::uint32_t cycles,
                     OpRecord& rec, Checks& checks, const std::string& tag) {
  rec.conv_factor = sim.tracker().mean_factor(cycles);
  rec.node_cycles =
      static_cast<double>(sim.population().live_count()) * cycles;
  rec.exchanges = initiated_exchanges(sim);
  const auto estimates = sim.scalar_estimates();
  rec.participants = static_cast<double>(estimates.size());
  const auto final_sum = static_cast<double>(sum_of(estimates));
  checks.add(tag + ".sum_conserved",
             std::abs(final_sum - initial) / initial <=
                 kConservationTolerance,
             "initial " + fmt(initial) + " final " + fmt(final_sum));
  checks.add(tag + ".estimates_finite", all_finite(estimates),
             std::to_string(estimates.size()) + " estimates");
  checks.add(tag + ".conv_factor_in_0_1",
             rec.conv_factor > 0.0 && rec.conv_factor < 1.0,
             "conv_factor " + fmt(rec.conv_factor));
}

WorkloadResult run_avg_cache(const Args& args, const WorkloadDef& def,
                             Tracer& tracer) {
  const auto cfg = average_config(kCacheNodes, 30);
  const failure::NoFailures plan;
  return measure(
      args, def, tracer,
      [&](std::uint32_t r) {
        auto sim = std::make_unique<experiment::CycleSimulation>(
            cfg, Rng(experiment::rep_seed(args.seed, 0, r)));
        sim->init_peak(static_cast<double>(kCacheNodes));
        return sim;
      },
      [&](experiment::CycleSimulation& sim) { sim.run(plan); },
      [&](const experiment::CycleSimulation& sim, OpRecord& rec,
          Checks& checks, const std::string& tag) {
        collect_average(sim, static_cast<double>(kCacheNodes), cfg.cycles,
                        rec, checks, tag);
      });
}

/// One giant repetition and the global sum it started from.
struct GiantRep {
  std::unique_ptr<experiment::IntraRepSimulation> sim;
  double initial_sum = 0.0;
};

WorkloadResult run_avg_giant(const Args& args, const WorkloadDef& def,
                             Tracer& tracer) {
  const auto cfg = average_config(kGiantNodes, 10);
  const failure::NoFailures plan;
  experiment::ParallelRunner pool(kGiantThreads);
  experiment::IntraRepPhaseProfile profile;
  WorkloadResult out = measure(
      args, def, tracer,
      [&](std::uint32_t r) {
        const std::uint64_t seed = experiment::rep_seed(args.seed, 0, r);
        auto rep = std::make_unique<GiantRep>();
        rep->sim = std::make_unique<experiment::IntraRepSimulation>(
            cfg, seed, kGiantShards);
        // Uniform values: at N=10^6 with a single rep, a peak's first
        // cycles (is the one holder matched or not?) would dominate the
        // factor; over 10^6 uniform values it is a law-of-large-numbers
        // figure that hardly moves between seeds.
        Rng values(seed ^ kGiantValuesSalt);
        long double sum = 0.0L;
        rep->sim->init_scalar([&](NodeId) {
          const double v = values.uniform(0.0, 2.0);
          sum += v;
          return v;
        });
        rep->initial_sum = static_cast<double>(sum);
        return rep;
      },
      [&](GiantRep& rep) {
        rep.sim->set_phase_profile(&profile);
        rep.sim->run(plan, pool);
      },
      [&](const GiantRep& rep, OpRecord& rec, Checks& checks,
          const std::string& tag) {
        collect_average(*rep.sim, rep.initial_sum, cfg.cycles, rec, checks,
                        tag);
      });
  // The profile accumulates over every operation of the run.
  const auto ops = static_cast<double>(out.ops.size());
  out.counters = {
      {"intra_rep_parallel_s", number(profile.parallel_seconds / ops)},
      {"intra_rep_serial_fraction", number(profile.serial_fraction())}};
  return out;
}

WorkloadResult run_count_churn_loss(const Args& args, const WorkloadDef& def,
                                    Tracer& tracer) {
  experiment::SimConfig cfg = average_config(kCountNodes, 30);
  cfg.instances = kCountInstances;
  cfg.comm = failure::CommFailureModel::message_loss(kCountLoss);
  const failure::Churn plan(kChurnRate);
  return measure(
      args, def, tracer,
      [&](std::uint32_t r) {
        auto sim = std::make_unique<experiment::CycleSimulation>(
            cfg, Rng(experiment::rep_seed(args.seed, 0, r)));
        sim->init_count_leaders();
        return sim;
      },
      [&](experiment::CycleSimulation& sim) { sim.run(plan); },
      [&](const experiment::CycleSimulation& sim, OpRecord& rec,
          Checks& checks, const std::string& tag) {
        // COUNT's factor: the median over the t lanes of each lane's
        // geometric-mean factor, so one lane whose leader crashed early
        // does not stand for the protocol.
        std::vector<double> lane_factors;
        for (std::uint32_t i = 0; i < cfg.instances; ++i) {
          stats::ConvergenceTracker lane;
          for (const auto& snapshot : sim.instance_cycle_stats()) {
            lane.record(snapshot[i].variance());
          }
          lane_factors.push_back(lane.mean_factor(cfg.cycles));
        }
        rec.conv_factor = stats::summarize(lane_factors).median;
        const auto live = static_cast<double>(sim.population().live_count());
        rec.node_cycles = live * cfg.cycles;
        rec.exchanges = initiated_exchanges(sim);
        const auto sizes = sim.size_estimates();
        rec.participants = static_cast<double>(sizes.size());
        const double median = stats::summarize(sizes).median;
        rec.count_rel_error = std::abs(median - live) / live;
        checks.add(tag + ".median_finite", std::isfinite(median),
                   "median size estimate " + fmt(median));
        checks.add(tag + ".count_within_factor",
                   median >= live / kCountFactor &&
                       median <= live * kCountFactor,
                   "median " + fmt(median) + " live " + fmt(live) +
                       " factor " + fmt(kCountFactor));
        checks.add(tag + ".conv_factor_in_0_1",
                   rec.conv_factor > 0.0 && rec.conv_factor < 1.0,
                   "conv_factor " + fmt(rec.conv_factor));
        checks.add(tag + ".live_size_kept", live == kCountNodes,
                   "live " + fmt(live));
      });
}

/// One runtime epoch's state: the loopback transport must outlive the
/// executor wired to it.
struct RuntimeEpoch {
  runtime::LoopbackTransport transport;
  runtime::Executor executor;
  runtime::ExecutorResult result;

  RuntimeEpoch(runtime::ExecutorConfig config,
               const runtime::FaultConfig& faults)
      : transport(faults), executor(std::move(config), transport) {}
};

WorkloadResult run_runtime_w2(const Args& args, const WorkloadDef& def,
                              Tracer& tracer) {
  const failure::NoFailures plan;
  runtime::RuntimeCounters totals;
  WorkloadResult out = measure(
      args, def, tracer,
      [&](std::uint32_t r) {
        const std::uint64_t seed = experiment::rep_seed(args.seed, 0, r);
        runtime::ExecutorConfig cfg;
        cfg.nodes = kRuntimeNodes;
        cfg.local_lo = 0;
        cfg.local_hi = kRuntimeNodes;
        cfg.cycles = 30;
        cfg.workers = kRuntimeWorkers;
        cfg.delta_us = 0;
        cfg.seed = seed;
        cfg.overlay = runtime::OverlayMode::kNewscast;
        cfg.cache_size = kCacheSize;
        cfg.initial.assign(kRuntimeNodes, 0.0);
        cfg.initial[0] = static_cast<double>(kRuntimeNodes);
        runtime::FaultConfig faults;
        std::uint64_t fault_state = seed;
        faults.seed = splitmix64(fault_state);
        return std::make_unique<RuntimeEpoch>(std::move(cfg), faults);
      },
      [&](RuntimeEpoch& epoch) { epoch.result = epoch.executor.run(plan); },
      [&](const RuntimeEpoch& epoch, OpRecord& rec, Checks& checks,
          const std::string& tag) {
        const runtime::ExecutorResult& result = epoch.result;
        const std::size_t cycles = result.per_cycle.size() - 1;
        stats::ConvergenceTracker tracker;
        for (const auto& snapshot : result.per_cycle) {
          tracker.record(snapshot.variance());
        }
        rec.conv_factor = tracker.mean_factor(cycles);
        rec.participants = static_cast<double>(result.participants);
        rec.node_cycles = rec.participants * static_cast<double>(cycles);
        rec.exchanges =
            static_cast<double>(result.counters.exchanges_completed);
        // A busy NACK is the protocol's answer to a push that would break
        // exchange atomicity: answered, so not failed. A push that got no
        // reply and no NACK failed (it times out; zero at zero loss).
        rec.attempted = result.counters.pushes_sent;
        rec.failed = result.counters.pushes_sent -
                     result.counters.exchanges_completed -
                     result.counters.busy_nacks;
        totals.add(result.counters);
        checks.add(tag + ".sum_conserved",
                   result.sum_initial == result.sum_final,
                   "sum_initial " + fmt(result.sum_initial) + " sum_final " +
                       fmt(result.sum_final));
        checks.add(tag + ".estimates_finite",
                   all_finite(result.final_estimates),
                   std::to_string(result.final_estimates.size()) +
                       " estimates");
        checks.add(tag + ".conv_factor_in_0_1",
                   rec.conv_factor > 0.0 && rec.conv_factor < 1.0,
                   "conv_factor " + fmt(rec.conv_factor));
        checks.add(tag + ".exchanges_completed",
                   result.counters.exchanges_completed > 0,
                   std::to_string(result.counters.exchanges_completed));
      });
  out.counters = {{"pushes_sent", totals.pushes_sent},
                  {"exchanges_completed", totals.exchanges_completed},
                  {"busy_nacks", totals.busy_nacks},
                  {"pushes_received", totals.pushes_received},
                  {"timeouts", totals.timeouts},
                  {"messages_sent", totals.messages_sent},
                  {"bytes_encoded", totals.bytes_encoded}};
  return out;
}

// ------------------------------------------------------------ layer legs
//
// Traced pass only: each leg calls one layer's public functions directly,
// so its cost can be attributed without instrumenting the library.

/// Times `body(i)` for i in [0, calls) `repeats` times and returns the
/// median seconds per call.
template <typename Body>
double per_call_seconds(std::size_t calls, int repeats, Body&& body) {
  std::vector<double> samples;
  for (int k = 0; k < repeats; ++k) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) body(i);
    samples.push_back(seconds_between(t0, Clock::now()) /
                      static_cast<double>(calls));
  }
  return stats::summarize(samples).median;
}

/// Keeps a computed value alive so the timed loop is not folded away.
volatile double g_sink = 0.0;

/// NEWSCAST bootstrap at `nodes` (seconds) and the mean cost of one
/// exchange between random live pairs of that network (nanoseconds).
void leg_membership(json::Object& legs, Tracer& tracer, std::uint32_t nodes,
                    std::uint64_t seed) {
  membership::NewscastNetwork net(kCacheSize);
  Rng rng(seed);
  double bootstrap_s = 0.0;
  {
    Tracer::Scope s(tracer, "leg.membership.bootstrap");
    const auto t0 = Clock::now();
    net.bootstrap_random(nodes, 0, rng);
    bootstrap_s = seconds_between(t0, Clock::now());
  }
  std::vector<std::pair<NodeId, NodeId>> pairs(100'000);
  for (auto& p : pairs) {
    const auto a = static_cast<std::uint32_t>(rng.below(nodes));
    auto b = static_cast<std::uint32_t>(rng.below(nodes - 1));
    if (b >= a) ++b;
    p = {NodeId(a), NodeId(b)};
  }
  double exchange_s = 0.0;
  {
    Tracer::Scope s(tracer, "leg.membership.exchange");
    exchange_s = per_call_seconds(pairs.size(), 3, [&](std::size_t i) {
      net.exchange(pairs[i].first, pairs[i].second, 1 + i % 7);
    });
  }
  put(legs, "membership.bootstrap_s", bootstrap_s);
  put(legs, "membership.exchange_ns", exchange_s * 1e9);
}

/// NEWSCAST join (§4.2): add_node with a random live contact.
void leg_join(json::Object& legs, Tracer& tracer, std::uint32_t nodes,
              std::uint64_t seed) {
  membership::NewscastNetwork net(kCacheSize);
  Rng rng(seed);
  net.bootstrap_random(nodes, 0, rng);
  constexpr std::size_t kJoins = 30'000;
  net.reserve_joins(kJoins);
  std::vector<NodeId> contacts(kJoins);
  for (auto& c : contacts) {
    c = NodeId(static_cast<std::uint32_t>(rng.below(nodes)));
  }
  Tracer::Scope s(tracer, "leg.membership.join");
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kJoins; ++i) {
    net.add_node(NodeId(static_cast<std::uint32_t>(nodes + i)), contacts[i],
                 1);
  }
  put(legs, "membership.join_ns",
           seconds_between(t0, Clock::now()) / kJoins * 1e9);
}

/// The AVERAGE update over two estimate arrays, as the cycle drivers
/// apply it (both peers install the result).
void leg_update(json::Object& legs, Tracer& tracer, std::uint64_t seed) {
  constexpr std::size_t kSlots = 1 << 14;
  std::vector<double> a(kSlots);
  std::vector<double> b(kSlots);
  Rng rng(seed);
  for (std::size_t i = 0; i < kSlots; ++i) {
    a[i] = rng.uniform();
    b[i] = rng.uniform();
  }
  Tracer::Scope s(tracer, "leg.core.update");
  const double per_sweep = per_call_seconds(200, 5, [&](std::size_t) {
    for (std::size_t i = 0; i < kSlots; ++i) {
      const double v = core::apply_update(core::UpdateKind::kAverage, a[i],
                                          b[(i * 7) & (kSlots - 1)]);
      a[i] = v;
      b[(i * 7) & (kSlots - 1)] = v;
    }
  });
  g_sink = a[0];
  put(legs, "core.update_ns", per_sweep / kSlots * 1e9);
}

/// The COUNT merge (§5) of two t-leader maps.
void leg_count_update(json::Object& legs, Tracer& tracer) {
  core::CountMap a;
  core::CountMap b;
  for (std::uint32_t i = 0; i < kCountInstances; ++i) {
    a = core::CountMap::merge(a, core::CountMap::leader(NodeId(2 * i)));
    b = core::CountMap::merge(b, core::CountMap::leader(NodeId(2 * i + 1)));
  }
  Tracer::Scope s(tracer, "leg.core.count_update");
  const double per_merge = per_call_seconds(100'000, 5, [&](std::size_t i) {
    core::CountMap m = core::CountMap::merge(a, b);
    if ((i & 1) != 0) {
      a = std::move(m);
    } else {
      b = std::move(m);
    }
  });
  g_sink = static_cast<double>(a.size());
  put(legs, "core.count_update_ns", per_merge * 1e9);
}

/// ShardedPopulation construction at `nodes` (the intra-rep overlay).
void leg_population(json::Object& legs, Tracer& tracer, std::uint32_t nodes) {
  Tracer::Scope s(tracer, "leg.overlay.population_build");
  const auto t0 = Clock::now();
  overlay::ShardedPopulation population(nodes, kGiantShards);
  put(legs, "overlay.population_build_s", seconds_between(t0, Clock::now()));
  g_sink = static_cast<double>(population.live_count());
}

/// An empty ParallelRunner batch (fan-out + join cost) and one
/// merge_tree fold over the intra-rep engine's 64 statistics segments.
void leg_runner_and_stats(json::Object& legs, Tracer& tracer,
                          std::uint64_t seed) {
  experiment::ParallelRunner pool(kGiantThreads);
  const std::function<void(std::size_t)> noop = [](std::size_t) {};
  {
    Tracer::Scope s(tracer, "leg.experiment.runner.dispatch");
    put(legs, "experiment.runner.dispatch_us",
             per_call_seconds(2'000, 5,
                              [&](std::size_t) {
                                pool.run(kGiantThreads, noop);
                              }) *
                 1e6);
  }
  constexpr std::size_t kSegments = 64;
  std::vector<stats::RunningStats> parts(kSegments);
  Rng rng(seed);
  for (auto& p : parts) {
    for (int k = 0; k < 16; ++k) p.add(rng.uniform());
  }
  std::vector<stats::RunningStats> scratch(kSegments);
  Tracer::Scope s(tracer, "leg.stats.merge_tree");
  put(legs, "stats.merge_tree_us",
           per_call_seconds(20'000, 5,
                            [&](std::size_t) {
                              scratch = parts;
                              g_sink = stats::merge_tree(scratch).mean();
                            }) *
               1e6);
}

/// Wire encode/decode of the runtime's two message kinds, and one
/// loopback frame reaching the sink.
void leg_proto_and_frame(json::Object& legs, Tracer& tracer,
                         std::uint64_t seed) {
  Rng rng(seed);
  proto::NewsPush news;
  for (std::uint32_t i = 0; i < kCacheSize; ++i) {
    news.entries.emplace_back(
        NodeId(static_cast<std::uint32_t>(rng.below(kRuntimeNodes))), i);
  }
  news.fresh = membership::CacheEntry(NodeId(7), kCacheSize);
  const std::vector<proto::Message> messages = {
      proto::AggPush{1, 42, rng.uniform()}, proto::Message(news)};
  std::vector<std::vector<std::byte>> encoded;
  double bytes = 0.0;
  for (const auto& m : messages) {
    encoded.push_back(proto::encode(m));
    bytes += static_cast<double>(encoded.back().size());
  }
  {
    Tracer::Scope s(tracer, "leg.proto.encode");
    put(legs, "proto.encode_ns",
             per_call_seconds(100'000, 5,
                              [&](std::size_t i) {
                                g_sink = static_cast<double>(
                                    proto::encode(messages[i & 1]).size());
                              }) *
                 1e9);
  }
  {
    Tracer::Scope s(tracer, "leg.proto.decode");
    put(legs, "proto.decode_ns",
             per_call_seconds(100'000, 5,
                              [&](std::size_t i) {
                                g_sink = static_cast<double>(
                                    proto::decode(encoded[i & 1]).index());
                              }) *
                 1e9);
  }
  put(legs, "proto.bytes_per_msg",
      bytes / static_cast<double>(messages.size()));

  runtime::LoopbackTransport transport;
  std::uint64_t delivered = 0;
  transport.set_sink([&](runtime::Frame&& frame) {
    delivered += frame.payload.size();
  });
  transport.start();
  Tracer::Scope s(tracer, "leg.runtime.frame");
  put(legs, "runtime.frame_ns",
           per_call_seconds(100'000, 5,
                            [&](std::size_t i) {
                              transport.send(NodeId(1), NodeId(2),
                                             encoded[i & 1]);
                            }) *
               1e9);
  transport.shutdown();
  g_sink = static_cast<double>(delivered);
}

/// The legs each workload's traced pass runs (README: layer → metric →
/// end-to-end map).
void run_legs(const std::string& workload, std::uint64_t seed,
              json::Object& legs, Tracer& tracer) {
  if (workload == "avg_cache") {
    leg_membership(legs, tracer, kCacheNodes, seed);
    leg_update(legs, tracer, seed);
  } else if (workload == "avg_giant") {
    leg_population(legs, tracer, kGiantNodes);
    leg_membership(legs, tracer, kGiantNodes, seed);
    leg_runner_and_stats(legs, tracer, seed);
  } else if (workload == "count_churn_loss") {
    leg_join(legs, tracer, kCountNodes, seed);
    leg_update(legs, tracer, seed);
    leg_count_update(legs, tracer);
  } else if (workload == "runtime_w2") {
    leg_proto_and_frame(legs, tracer, seed);
  }
}

// ------------------------------------------------------------ provenance

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--ops") {
      args.ops = static_cast<std::uint32_t>(std::stoul(value));
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench_workload --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--ops N]\n";
    return 2;
  }
  const WorkloadDef* def = find_workload(args.workload);
  if (def == nullptr) {
    std::cerr << "perfbench_workload: unknown workload '" << args.workload
              << "'\n";
    return 2;
  }
#ifndef NDEBUG
  std::cerr << "perfbench_workload: refusing to time a build without NDEBUG\n";
  return 3;
#endif

  Tracer tracer(args.trace);
  WorkloadResult result;
  const auto start = Clock::now();
  if (args.workload == "avg_cache") {
    result = run_avg_cache(args, *def, tracer);
  } else if (args.workload == "avg_giant") {
    result = run_avg_giant(args, *def, tracer);
  } else if (args.workload == "count_churn_loss") {
    result = run_count_churn_loss(args, *def, tracer);
  } else {
    result = run_runtime_w2(args, *def, tracer);
  }
  const double measured_s = seconds_between(start, Clock::now());
  json::Object legs;
  if (args.trace) run_legs(args.workload, args.seed, legs, tracer);

  json::Array ops;
  for (const OpRecord& op : result.ops) ops.push_back(op.dump());
  json::Array setup_samples;
  for (double v : result.setup_samples) setup_samples.push_back(number(v));
  json::Value out = json::Object{
      {"workload", args.workload},
      {"seed", args.seed},
      {"traced", args.trace},
      {"min_ops", def->min_ops},
      {"threads", def->threads},
      {"working_set_bytes", number(def->working_set_bytes)},
      {"measured_s", number(measured_s)},
      {"peak_rss_mb", number(peak_rss_mb())},
      {"ndebug", true},
      {"ops", std::move(ops)},
      {"setup_samples", std::move(setup_samples)},
      {"counters", std::move(result.counters)},
      {"checks_run", static_cast<std::uint64_t>(result.checks.run)},
      {"failed_checks", std::move(result.checks.records)},
      {"correct", result.checks.all_ok}};
  if (args.trace) {
    out.set("legs", std::move(legs));
    out.set("spans", tracer.dump());
  }
  std::cout << out.dump() << "\n";
  return result.checks.all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_workload: " << e.what() << "\n";
    return 1;
  }
}
