// Performance report for the cycle-driven simulator and the parallel
// experiment engine, driven through the Engine facade.
//
// Times the multi-repetition AVERAGE-on-NEWSCAST workload (the §7
// configuration every robustness figure uses) with engine=serial and
// engine=rep_parallel, verifies the merged results are bit-identical,
// then times one repetition under engine=intra_rep at GOSSIP_SHARDS
// against its 1-shard reference. Emits BENCH_cyclesim.json — the
// machine-readable perf trajectory future optimization PRs diff against
// — including a provenance block (git sha, scale mode, threads/shards,
// spec hash) so committed numbers are traceable to their configuration.
//
// Knobs: GOSSIP_N / GOSSIP_REPS / GOSSIP_SEED / GOSSIP_THREADS /
// GOSSIP_SHARDS as everywhere (see EXPERIMENTS.md); GOSSIP_JSON
// overrides the output path.
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "experiment/emit.hpp"
#include "experiment/engine.hpp"
#include "experiment/intra_rep.hpp"
#include "experiment/parallel_runner.hpp"
#include "experiment/registry.hpp"
#include "experiment/scale.hpp"
#include "experiment/spec.hpp"
#include "experiment/table.hpp"
#include "failure/failure_plan.hpp"

namespace {

using namespace gossip;
using namespace gossip::experiment;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Bit-level equality so a run that legitimately diverges to inf/NaN
/// (COUNT under loss) still compares — `NaN == NaN` would read as a
/// divergence.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool identical(const std::vector<RunResult>& a,
               const std::vector<RunResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].per_cycle.size() != b[r].per_cycle.size()) return false;
    for (std::size_t c = 0; c < a[r].per_cycle.size(); ++c) {
      const auto& x = a[r].per_cycle[c];
      const auto& y = b[r].per_cycle[c];
      if (x.count() != y.count() || !same_bits(x.mean(), y.mean()) ||
          !same_bits(x.variance(), y.variance()) ||
          !same_bits(x.min(), y.min()) || !same_bits(x.max(), y.max())) {
        return false;
      }
    }
    if (a[r].tracker.variances() != b[r].tracker.variances()) return false;
    // The size-estimate summary carries the COUNT output (instance
    // slots beyond slot 0); per-cycle stats alone would miss a
    // divergence confined to those lanes.
    const auto& sa = a[r].sizes;
    const auto& sb = b[r].sizes;
    if (a[r].participants != b[r].participants || sa.count != sb.count ||
        !same_bits(sa.mean, sb.mean) ||
        !same_bits(sa.variance, sb.variance) ||
        !same_bits(sa.min, sb.min) || !same_bits(sa.max, sb.max) ||
        !same_bits(sa.median, sb.median)) {
      return false;
    }
  }
  return true;
}

int run() {
  const Scale s = bench_scale(/*def_nodes=*/10000, /*def_reps=*/16,
                              /*paper_nodes=*/100000, /*paper_reps=*/50);
  const unsigned threads = runner_threads();
  print_banner(std::cout, "Perf report",
               "serial vs parallel repetition throughput, cycle driver",
               scale_note(s, threads, "substrate benchmark, not a figure"));

  ScenarioSpec spec = ScenarioSpec::average_peak("perf_report", s.nodes, 30)
                          .with_topology(TopologyConfig::newscast(30))
                          .with_reps(s.reps)
                          .with_seed(s.seed)
                          .with_seed_point(0);

  const auto total_cycles =
      static_cast<double>(s.reps) * static_cast<double>(spec.cycles);
  // Per cycle: every node initiates one newscast exchange and one
  // aggregation exchange.
  const double total_exchanges = total_cycles * 2.0 * spec.nodes;

  Engine serial({EngineKind::kSerial});
  auto t0 = std::chrono::steady_clock::now();
  const auto serial_runs = serial.run_point(spec, 0);
  const double serial_s = seconds_since(t0);

  Engine parallel({EngineKind::kRepParallel, threads});
  t0 = std::chrono::steady_clock::now();
  const auto parallel_runs = parallel.run_point(spec, 0);
  const double parallel_s = seconds_since(t0);

  const bool bit_identical = identical(serial_runs, parallel_runs);
  const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;

  // ---- intra-rep mode: one repetition, cycles domain-decomposed --------
  //
  // The complementary axis: instead of fanning independent repetitions
  // out (useless when there is only one giant-N rep), one repetition's
  // cycles are split over GOSSIP_SHARDS node domains executed across the
  // runner's threads. The sharded run must be bit-identical to the
  // 1-shard/1-thread reference — shard count is a performance knob,
  // never a semantic one.
  const unsigned shards = runner_shards();
  ScenarioSpec intra_spec = spec;
  intra_spec.reps = 1;
  intra_spec.engine = EngineKind::kIntraRep;
  intra_spec.seed = s.seed;  // run_single consumes the seed raw

  Engine intra_serial({EngineKind::kIntraRep, 1, 1});
  t0 = std::chrono::steady_clock::now();
  const RunResult intra_ref = intra_serial.run_single(intra_spec, s.seed);
  const double intra_serial_s = seconds_since(t0);

  Engine intra_pool({EngineKind::kIntraRep, threads, shards});
  t0 = std::chrono::steady_clock::now();
  const RunResult intra_sharded = intra_pool.run_single(intra_spec, s.seed);
  const double intra_sharded_s = seconds_since(t0);

  const bool intra_identical = identical({intra_ref}, {intra_sharded});
  const double intra_speedup =
      intra_sharded_s > 0.0 ? intra_serial_s / intra_sharded_s : 0.0;

  // ---- intra-rep COUNT: the fig. 6/8 workload on the sharded engine ----
  //
  // One giant COUNT repetition with 8 concurrent instances — the
  // robustness workload the engine historically rejected. Checked
  // bit-identical against its 1-shard reference like the AVERAGE leg.
  ScenarioSpec count_spec =
      ScenarioSpec::count("perf_report_count", s.nodes, 30, 8)
          .with_topology(TopologyConfig::newscast(30))
          .with_seed(s.seed)
          .with_seed_point(0);
  count_spec.engine = EngineKind::kIntraRep;

  t0 = std::chrono::steady_clock::now();
  const RunResult count_ref = intra_serial.run_single(count_spec, s.seed);
  const double count_serial_s = seconds_since(t0);
  t0 = std::chrono::steady_clock::now();
  const RunResult count_sharded = intra_pool.run_single(count_spec, s.seed);
  const double count_sharded_s = seconds_since(t0);
  const bool count_identical = identical({count_ref}, {count_sharded});
  const double count_speedup =
      count_sharded_s > 0.0 ? count_serial_s / count_sharded_s : 0.0;

  // ---- continuous-service leg: lane throughput + snapshot staleness ----
  //
  // (a) The flat [node x instance] COUNT path at service traffic width
  // (10^3+ concurrent query lanes): lane_updates_per_sec is the number
  // future lane-path optimizations diff against. (b) An epoch-pipelined
  // AVERAGE run under linear drift: every cycle serves a query from the
  // snapshot store, and the committed numbers carry the query rate and
  // the p99 snapshot age against the spec's staleness bound.
  const std::uint32_t lanes_t = std::min(s.nodes, 2000u);
  ScenarioSpec lanes_spec =
      ScenarioSpec::count("perf_report_lanes", s.nodes, 30, lanes_t)
          .with_topology(TopologyConfig::newscast(30))
          .with_seed(s.seed)
          .with_seed_point(0);
  const RunResult lanes_run = serial.run_single(lanes_spec, s.seed);
  const double lane_updates_per_sec =
      lanes_run.elapsed_seconds > 0.0
          ? static_cast<double>(s.nodes) * lanes_t * lanes_spec.cycles /
                lanes_run.elapsed_seconds
          : 0.0;

  constexpr std::uint32_t kStalenessBound = 12;
  ScenarioSpec service_spec =
      ScenarioSpec::average_peak("perf_report_service", s.nodes, 40)
          .with_topology(TopologyConfig::newscast(30))
          .with_seed(s.seed)
          .with_seed_point(0)
          .with_drift(DriftSpec::linear(0.01))
          .with_service(ServiceSpec::pipelined(10, kStalenessBound));
  service_spec.init = InitKind::kUniform;
  const RunResult service_run = serial.run_single(service_spec, s.seed);
  const std::uint32_t p99_staleness =
      staleness_percentile(service_run.staleness, 99.0);
  const bool stale_ok = p99_staleness <= kStalenessBound;
  const double queries_per_sec =
      service_run.elapsed_seconds > 0.0
          ? static_cast<double>(service_run.staleness.size()) /
                service_run.elapsed_seconds
          : 0.0;

  // ---- serial-phase fraction: the Amdahl residue of the intra-rep cycle
  //
  // With matching and record_stats parallelized, the only serial work
  // left per cycle is O(shards + segments) glue (prefix sums, the
  // fixed-shape reduction folds). The fraction of wall time spent
  // outside ParallelRunner batches is the ceiling on intra-rep scaling,
  // so the committed JSON tracks it.
  IntraRepPhaseProfile phase_profile;
  {
    SimConfig cfg;
    cfg.nodes = s.nodes;
    cfg.cycles = spec.cycles;
    cfg.topology = TopologyConfig::newscast(30);
    IntraRepSimulation sim(cfg, s.seed, shards);
    sim.init_peak(static_cast<double>(s.nodes));
    sim.set_phase_profile(&phase_profile);
    ParallelRunner profile_pool(std::min(threads, shards));
    const failure::NoFailures no_failures;
    sim.run(no_failures, profile_pool);
  }
  const double serial_phase_fraction = phase_profile.serial_fraction();

  // ---- match-rounds sweep: convergence factor vs rounds ----------------
  //
  // The factor the matched-cycle model achieves per R against the serial
  // driver's reference (≈ 1/(2√e) ≈ 0.30 on this workload). The R=3
  // acceptance bound is 1.2× serial; the committed numbers land below
  // 1.0×.
  const double serial_factor =
      serial_runs.front().tracker.mean_factor(spec.cycles);
  struct RoundsPoint {
    std::uint32_t rounds;
    double factor;
    double seconds;
  };
  std::vector<RoundsPoint> rounds_sweep;
  for (std::uint32_t rounds : {1u, 2u, 3u}) {
    ScenarioSpec rounds_spec = intra_spec;
    rounds_spec.match_rounds = rounds;
    t0 = std::chrono::steady_clock::now();
    const RunResult run = intra_pool.run_single(rounds_spec, s.seed);
    rounds_sweep.push_back({rounds, run.tracker.mean_factor(spec.cycles),
                            seconds_since(t0)});
  }

  // ---- deployment-runtime leg: the live executor at N = 10^3 -----------
  //
  // The same AVERAGE-on-NEWSCAST workload on the deployment runtime
  // (loopback transport, zero loss, real worker threads and real wire
  // encode/decode on every hop): exchanges/sec is the number future
  // executor optimizations diff against, and exact global sum
  // conservation doubles as a live invariant check in every report.
  const std::uint32_t rt_nodes = std::min(s.nodes, 1000u);
  ScenarioSpec rt_spec =
      ScenarioSpec::average_peak("perf_report_runtime", rt_nodes, 20)
          .with_topology(TopologyConfig::newscast(30))
          .with_driver(DriverKind::kRuntime)
          .with_seed(s.seed)
          .with_seed_point(0);
  rt_spec.runtime.workers = threads;
  const RunResult rt_run = serial.run_single(rt_spec, s.seed);
  const auto& rt_c = rt_run.runtime_counters;
  const double rt_exchanges_per_sec =
      rt_run.elapsed_seconds > 0.0
          ? static_cast<double>(rt_c.exchanges_completed) /
                rt_run.elapsed_seconds
          : 0.0;
  const double rt_bytes_per_exchange =
      rt_c.exchanges_completed > 0
          ? static_cast<double>(rt_c.bytes_encoded) /
                static_cast<double>(rt_c.exchanges_completed)
          : 0.0;
  const bool rt_conserved =
      std::fabs(rt_run.runtime_sum_final - rt_run.runtime_sum_initial) <=
      1e-9 * static_cast<double>(rt_nodes);

  Table table({"mode", "threads", "seconds", "cycles/sec", "exchanges/sec"});
  table.add_row({"serial", "1", fmt(serial_s, 3),
                 fmt(total_cycles / serial_s, 1),
                 fmt_sci(total_exchanges / serial_s, 3)});
  table.add_row({"parallel", std::to_string(threads), fmt(parallel_s, 3),
                 fmt(total_cycles / parallel_s, 1),
                 fmt_sci(total_exchanges / parallel_s, 3)});
  table.print(std::cout);

  std::cout << "\nspeedup: " << fmt(speedup, 2) << "x on " << threads
            << " thread(s); parallel results "
            << (bit_identical ? "bit-identical" : "DIVERGED (BUG)")
            << " vs serial\n";

  std::cout << "intra-rep: 1 rep, " << shards << " shard(s) on " << threads
            << " thread(s): " << fmt(intra_serial_s, 3) << "s -> "
            << fmt(intra_sharded_s, 3) << "s (" << fmt(intra_speedup, 2)
            << "x); sharded results "
            << (intra_identical ? "bit-identical" : "DIVERGED (BUG)")
            << " vs 1-shard reference\n";

  std::cout << "intra-rep COUNT (t=8): " << fmt(count_serial_s, 3)
            << "s -> " << fmt(count_sharded_s, 3) << "s ("
            << fmt(count_speedup, 2) << "x); sharded results "
            << (count_identical ? "bit-identical" : "DIVERGED (BUG)")
            << " vs 1-shard reference\n";

  std::cout << "intra-rep serial-phase fraction: "
            << fmt(serial_phase_fraction, 4) << " (time outside parallel "
            << "batches over one AVERAGE epoch; in-batch "
            << fmt(phase_profile.parallel_seconds, 3) << "s of "
            << fmt(phase_profile.total_seconds, 3) << "s)\n";

  std::cout << "service lanes (t=" << lanes_t << "): "
            << fmt(lanes_run.elapsed_seconds, 3) << "s, "
            << fmt_sci(lane_updates_per_sec, 3)
            << " lane-updates/s; pipelined queries: "
            << service_run.staleness.size() << " at "
            << fmt(queries_per_sec, 1) << "/s, p99 staleness "
            << p99_staleness << (stale_ok ? " <= " : " EXCEEDS ")
            << "bound " << kStalenessBound << "\n";

  std::cout << "deployment runtime (N=" << rt_nodes << ", "
            << rt_spec.runtime.workers << " worker(s)): "
            << fmt(rt_run.elapsed_seconds, 3) << "s, "
            << fmt_sci(rt_exchanges_per_sec, 3) << " exchanges/s, "
            << fmt(rt_bytes_per_exchange, 1) << " B/exchange, sum "
            << (rt_conserved ? "conserved" : "NOT CONSERVED (BUG)") << "\n";

  std::cout << "match-rounds factor sweep (serial driver factor = "
            << fmt(serial_factor) << "):\n";
  for (const RoundsPoint& pt : rounds_sweep) {
    std::cout << "  R=" << pt.rounds << ": factor " << fmt(pt.factor)
              << " (" << fmt(pt.factor / serial_factor, 2)
              << "x serial) in " << fmt(pt.seconds, 3) << "s\n";
  }

  // Provenance: the parallel leg is the configuration whose numbers the
  // committed JSON carries.
  ScenarioResult provenance_carrier;
  provenance_carrier.spec = spec;
  provenance_carrier.engine = resolve_engine(
      spec, EngineOptions{EngineKind::kRepParallel, threads, shards});
  const Provenance prov = make_provenance(provenance_carrier, s.full);

  const std::string path =
      env_string("GOSSIP_JSON").value_or("BENCH_cyclesim.json");
  std::ofstream json(path);
  json << "{\n"
       << "  \"bench\": \"cyclesim\",\n"
       << "  \"workload\": \"average_peak_newscast_c30\",\n"
       << "  \"nodes\": " << spec.nodes << ",\n"
       << "  \"cycles\": " << spec.cycles << ",\n"
       << "  \"reps\": " << s.reps << ",\n"
       << "  \"seed\": " << s.seed << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"serial_seconds\": " << fmt(serial_s, 6) << ",\n"
       << "  \"parallel_seconds\": " << fmt(parallel_s, 6) << ",\n"
       << "  \"speedup\": " << fmt(speedup, 4) << ",\n"
       << "  \"serial_cycles_per_sec\": " << fmt(total_cycles / serial_s, 2)
       << ",\n"
       << "  \"parallel_cycles_per_sec\": "
       << fmt(total_cycles / parallel_s, 2) << ",\n"
       << "  \"serial_exchanges_per_sec\": "
       << fmt(total_exchanges / serial_s, 1) << ",\n"
       << "  \"parallel_exchanges_per_sec\": "
       << fmt(total_exchanges / parallel_s, 1) << ",\n"
       << "  \"bit_identical\": " << (bit_identical ? "true" : "false")
       << ",\n"
       << "  \"service\": {\n"
       << "    \"lanes\": " << lanes_t << ",\n"
       << "    \"lane_seconds\": " << fmt(lanes_run.elapsed_seconds, 6)
       << ",\n"
       << "    \"lane_updates_per_sec\": " << fmt(lane_updates_per_sec, 1)
       << ",\n"
       << "    \"queries_served\": " << service_run.staleness.size()
       << ",\n"
       << "    \"queries_per_sec\": " << fmt(queries_per_sec, 2) << ",\n"
       << "    \"epochs_published\": " << service_run.epochs_published
       << ",\n"
       << "    \"p99_staleness\": " << p99_staleness << ",\n"
       << "    \"staleness_bound\": " << kStalenessBound << ",\n"
       << "    \"stale_ok\": " << (stale_ok ? "true" : "false") << ",\n"
       << "    \"tracking_error_final\": "
       << fmt(service_run.tracking_error.empty()
                  ? 0.0
                  : service_run.tracking_error.back(),
              6)
       << "\n  },\n"
       << "  \"intra_rep\": {\n"
       << "    \"shards\": " << shards << ",\n"
       << "    \"threads\": " << threads << ",\n"
       << "    \"serial_seconds\": " << fmt(intra_serial_s, 6) << ",\n"
       << "    \"sharded_seconds\": " << fmt(intra_sharded_s, 6) << ",\n"
       << "    \"speedup\": " << fmt(intra_speedup, 4) << ",\n"
       << "    \"bit_identical\": " << (intra_identical ? "true" : "false")
       << ",\n"
       << "    \"count\": {\n"
       << "      \"instances\": 8,\n"
       << "      \"serial_seconds\": " << fmt(count_serial_s, 6) << ",\n"
       << "      \"sharded_seconds\": " << fmt(count_sharded_s, 6) << ",\n"
       << "      \"speedup\": " << fmt(count_speedup, 4) << ",\n"
       << "      \"bit_identical\": "
       << (count_identical ? "true" : "false") << "\n    },\n"
       << "    \"serial_phase_fraction\": "
       << fmt(serial_phase_fraction, 6) << ",\n"
       << "    \"serial_phase_seconds\": "
       << fmt(phase_profile.total_seconds - phase_profile.parallel_seconds,
              6)
       << ",\n"
       << "    \"serial_driver_factor\": " << fmt(serial_factor, 6)
       << ",\n"
       << "    \"rounds\": [\n";
  for (std::size_t ri = 0; ri < rounds_sweep.size(); ++ri) {
    const RoundsPoint& pt = rounds_sweep[ri];
    json << "      {\"rounds\": " << pt.rounds << ", \"factor\": "
         << fmt(pt.factor, 6) << ", \"factor_vs_serial\": "
         << fmt(pt.factor / serial_factor, 4) << ", \"seconds\": "
         << fmt(pt.seconds, 6) << "}"
         << (ri + 1 < rounds_sweep.size() ? "," : "") << "\n";
  }
  json << "    ]\n  },\n"
       << "  \"runtime\": {\n"
       << "    \"nodes\": " << rt_nodes << ",\n"
       << "    \"workers\": " << rt_spec.runtime.workers << ",\n"
       << "    \"cycles\": " << rt_spec.cycles << ",\n"
       << "    \"seconds\": " << fmt(rt_run.elapsed_seconds, 6) << ",\n"
       << "    \"exchanges_completed\": " << rt_c.exchanges_completed
       << ",\n"
       << "    \"exchanges_per_sec\": " << fmt(rt_exchanges_per_sec, 1)
       << ",\n"
       << "    \"busy_nacks\": " << rt_c.busy_nacks << ",\n"
       << "    \"timeouts\": " << rt_c.timeouts << ",\n"
       << "    \"bytes_per_exchange\": " << fmt(rt_bytes_per_exchange, 2)
       << ",\n"
       << "    \"sum_conserved\": " << (rt_conserved ? "true" : "false")
       << "\n  },\n"
       << "  \"provenance\": ";
  // Indent the provenance block to match the hand-rolled layout.
  const std::string prov_text = provenance_json(prov, 2);
  for (std::size_t i = 0; i < prov_text.size(); ++i) {
    json << prov_text[i];
    if (prov_text[i] == '\n') json << "  ";
  }
  json << "\n}\n";
  json.close();
  if (!json) {
    std::cout << "ERROR: could not write " << path << '\n';
    return 1;
  }
  std::cout << "wrote " << path << '\n';

  return (bit_identical && intra_identical && count_identical &&
          rt_conserved)
             ? 0
             : 1;
}

}  // namespace

int main() {
  try {
    return run();
  } catch (const EnvError& e) {
    std::cerr << "gossip: " << e.what() << '\n';
    return 2;
  } catch (const SpecError& e) {
    std::cerr << "gossip: " << e.what() << '\n';
    return 2;
  }
}
