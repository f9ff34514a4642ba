// Micro-benchmarks (google-benchmark) for the library's hot kernels: the
// UPDATE functions, the sparse COUNT merge, the NEWSCAST cache merge,
// bootstrap and exchange, RNG primitives, and whole-simulation
// throughput. Not paper figures — these quantify the substrate so
// regressions in the simulator itself are visible.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "core/count.hpp"
#include "core/update.hpp"
#include "experiment/cycle_sim.hpp"
#include "experiment/engine.hpp"
#include "experiment/spec.hpp"
#include "failure/failure_plan.hpp"
#include "membership/newscast.hpp"
#include "membership/newscast_cache.hpp"

namespace {

using namespace gossip;

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_RngNext);

void BM_RngBelow(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(100003));
  }
}
BENCHMARK(BM_RngBelow);

void BM_AverageUpdate(benchmark::State& state) {
  Rng rng(3);
  double a = rng.uniform(), b = rng.uniform();
  for (auto _ : state) {
    a = core::AverageUpdate::apply(a, b);
    benchmark::DoNotOptimize(a);
    b += 1.0;  // keep values moving
  }
}
BENCHMARK(BM_AverageUpdate);

void BM_CountMapMerge(benchmark::State& state) {
  const auto leaders = static_cast<std::uint32_t>(state.range(0));
  core::CountMap a, b;
  for (std::uint32_t l = 0; l < leaders; ++l) {
    auto& side = (l % 2 == 0) ? a : b;
    side = core::CountMap::merge(side, core::CountMap::leader(NodeId(l)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::CountMap::merge(a, b));
  }
  state.SetItemsProcessed(state.iterations() * leaders);
}
BENCHMARK(BM_CountMapMerge)->Arg(1)->Arg(10)->Arg(50);

void BM_NewscastCacheMerge(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  membership::NewscastCache mine(c), theirs(c);
  // Random timestamps within the packed 32-bit clock.
  for (std::size_t i = 0; i < c; ++i) {
    mine.insert({NodeId(static_cast<std::uint32_t>(i)), rng() >> 32});
    theirs.insert({NodeId(static_cast<std::uint32_t>(i + c / 2)), rng() >> 32});
  }
  std::uint64_t now = 1;
  for (auto _ : state) {
    mine.merge(theirs.entries(), {NodeId(9999), now++}, NodeId(0));
  }
  state.SetItemsProcessed(state.iterations() * c);
}
BENCHMARK(BM_NewscastCacheMerge)->Arg(10)->Arg(30)->Arg(50);

// The §4.2 out-of-band bootstrap: N random c=30 views.
void BM_NewscastBootstrap(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  membership::NewscastNetwork net(30);
  Rng rng(7);
  for (auto _ : state) {
    net.bootstrap_random(n, 0, rng);
    benchmark::DoNotOptimize(net.view(NodeId(0)).data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NewscastBootstrap)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

// One push–pull cache exchange between random nodes of a bootstrapped
// N=10⁵, c=30 network (the pool is far larger than L2, as in a cycle).
void BM_NewscastExchange(benchmark::State& state) {
  constexpr std::uint32_t kNodes = 100'000;
  membership::NewscastNetwork net(30);
  Rng rng(8);
  net.bootstrap_random(kNodes, 0, rng);
  std::uint64_t exchanges = 0;
  for (auto _ : state) {
    const auto a = static_cast<std::uint32_t>(rng.below(kNodes));
    auto b = static_cast<std::uint32_t>(rng.below(kNodes - 1));
    if (b >= a) ++b;
    // Logical time advances once per kNodes exchanges, like a cycle.
    net.exchange(NodeId(a), NodeId(b), 1 + exchanges++ / kNodes);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NewscastExchange);

void BM_CycleSimAverage(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto spec = experiment::ScenarioSpec::average_peak("micro", n, 10)
                  .with_topology(experiment::TopologyConfig::random_k_out(20))
                  .with_engine(experiment::EngineKind::kSerial);
  experiment::Engine engine;
  std::uint64_t seed = 5;
  for (auto _ : state) {
    const auto run = engine.run_single(spec, seed++);
    benchmark::DoNotOptimize(run.per_cycle.back().mean());
  }
  // exchanges per second: n initiations per cycle.
  state.SetItemsProcessed(state.iterations() * n * spec.cycles);
}
BENCHMARK(BM_CycleSimAverage)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_CycleSimNewscastCount(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto spec = experiment::ScenarioSpec::count("micro", n, 10)
                  .with_topology(experiment::TopologyConfig::newscast(30))
                  .with_engine(experiment::EngineKind::kSerial);
  experiment::Engine engine;
  std::uint64_t seed = 6;
  for (auto _ : state) {
    const auto run = engine.run_single(spec, seed++);
    benchmark::DoNotOptimize(run.sizes.mean);
  }
  state.SetItemsProcessed(state.iterations() * n * spec.cycles);
}
BENCHMARK(BM_CycleSimNewscastCount)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
