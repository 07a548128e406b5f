// Component microbenchmarks (google-benchmark): the building blocks whose
// cost determines how large a network the simulator can sweep.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "harness/report.hpp"
#include "routing/fat_tree_routing.hpp"
#include "routing/load_analysis.hpp"
#include "routing/path.hpp"
#include "sim/engine.hpp"
#include "../tests/sim/heap_event_queue.hpp"

namespace {

using namespace mlid;

void BM_LftLookup(benchmark::State& state) {
  const FatTreeParams p(8, 3);
  const MlidRouting scheme(p);
  const Lft lft = scheme.build_lft(0);
  Lid lid = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lft.lookup(lid));
    lid = lid % scheme.max_lid() + 1;
  }
}
BENCHMARK(BM_LftLookup);

void BM_OutputPortClosedForm(benchmark::State& state) {
  // Equation (1)/(2) evaluation, the SM-side cost per LFT entry.
  const FatTreeParams p(8, 3);
  const MlidRouting scheme(p);
  const SwitchLabel sw = switch_from_id(p, p.num_switches() - 1);
  Lid lid = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.output_port(sw, lid));
    lid = lid % scheme.max_lid() + 1;
  }
}
BENCHMARK(BM_OutputPortClosedForm);

void BM_BuildLft(benchmark::State& state) {
  const FatTreeParams p(static_cast<int>(state.range(0)),
                        static_cast<int>(state.range(1)));
  const MlidRouting scheme(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.build_lft(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          scheme.max_lid());
}
BENCHMARK(BM_BuildLft)->Args({4, 3})->Args({8, 3})->Args({16, 2});

void BM_SelectDlid(benchmark::State& state) {
  const FatTreeParams p(8, 3);
  const MlidRouting scheme(p);
  NodeId src = 0, dst = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.select_dlid(src, dst));
    src = (src + 1) % p.num_nodes();
    dst = (dst + 7) % p.num_nodes();
  }
}
BENCHMARK(BM_SelectDlid);

// The engine's ladder queue raced against the heap oracle it is tested
// against: same push stream, same pop order.
template <typename Queue>
void BM_EventQueuePushPop(benchmark::State& state) {
  Queue q;
  SimTime t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.push(t + (i * 37) % 1000, EventKind::kTailOut, 0);
    }
    for (int i = 0; i < 64; ++i) {
      benchmark::DoNotOptimize(q.pop());
    }
    t += 1000;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_EventQueuePushPop<HeapEventQueue>);
BENCHMARK(BM_EventQueuePushPop<EventQueue>);

// The FT(16,4) shape: about 12 k events in one 64 ns epoch, drained while
// one pop in eight schedules back into that epoch (the stream of
// EventQueueParity.DenseEpochWithPushesIntoTheDrainingEpoch).  Each
// iteration drains one such epoch.
template <typename Queue>
void BM_EventQueueDenseEpoch(benchmark::State& state) {
  constexpr SimTime kWidth = 64;
  Xoshiro256 rng(13);
  std::vector<std::pair<SimTime, DeviceId>> batch(12'000);
  for (auto& [offset, dev] : batch) {
    offset = static_cast<SimTime>(rng.below(kWidth));
    dev = static_cast<DeviceId>(rng.below(8'192));
  }
  Queue q;
  SimTime epoch = 0;
  std::int64_t pops = 0;
  for (auto _ : state) {
    for (const auto& [offset, dev] : batch) {
      q.push(epoch + offset, EventKind::kCreditArrive, dev);
    }
    while (!q.empty()) {
      const Event e = q.pop();
      benchmark::DoNotOptimize(e);
      const SimTime left = epoch + kWidth - e.time;
      if (++pops % 8 == 0 && left > 0) {
        q.push(e.time + static_cast<SimTime>(e.dev) % left,
               EventKind::kTailOut, e.dev);
      }
    }
    epoch += kWidth;
  }
  state.SetItemsProcessed(pops);
}
BENCHMARK(BM_EventQueueDenseEpoch<HeapEventQueue>);
BENCHMARK(BM_EventQueueDenseEpoch<EventQueue>);

// The FT(16,4) shape held over many epochs: about 200 new events per ns,
// each iteration adding 64 ns of them and dispatching everything before its
// end, while one pop in eight schedules a follow-up 20-256 ns ahead.  Past
// the first iterations the ladder runs at the width this density settles
// it on.
template <typename Queue>
void BM_EventQueueDenseStream(benchmark::State& state) {
  constexpr SimTime kSpan = 64;
  Xoshiro256 rng(17);
  std::vector<std::pair<SimTime, DeviceId>> batch(200 * kSpan);
  for (auto& [offset, dev] : batch) {
    offset = static_cast<SimTime>(rng.below(kSpan));
    dev = static_cast<DeviceId>(rng.below(8'192));
  }
  Queue q;
  SimTime span = 0;
  std::int64_t pops = 0;
  for (auto _ : state) {
    for (const auto& [offset, dev] : batch) {
      q.push(span + offset, EventKind::kHeadArrive, dev);
    }
    span += kSpan;
    while (const Event* next = q.peek()) {
      if (next->time >= span) break;
      const Event e = q.pop();
      benchmark::DoNotOptimize(e);
      if (++pops % 8 == 0) {
        q.push(e.time + 20 + static_cast<SimTime>(e.dev % 237),
               EventKind::kRouted, e.dev);
      }
    }
  }
  state.SetItemsProcessed(pops);
}
BENCHMARK(BM_EventQueueDenseStream<HeapEventQueue>);
BENCHMARK(BM_EventQueueDenseStream<EventQueue>);

void BM_TracePath(benchmark::State& state) {
  const FatTreeFabric fabric{FatTreeParams(8, 3)};
  const MlidRouting scheme(fabric.params());
  const CompiledRoutes routes(fabric, scheme);
  NodeId src = 0, dst = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace_path(fabric, routes, src, scheme.select_dlid(src, dst)));
    src = (src + 1) % fabric.params().num_nodes();
    dst = (dst + 7) % fabric.params().num_nodes();
  }
}
BENCHMARK(BM_TracePath);

void BM_SubnetBringUp(benchmark::State& state) {
  const FatTreeFabric fabric{
      FatTreeParams(static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(1)))};
  for (auto _ : state) {
    const Subnet subnet(fabric, "MLID");
    benchmark::DoNotOptimize(subnet.init_stats());
  }
}
BENCHMARK(BM_SubnetBringUp)->Args({4, 3})->Args({8, 3});

void BM_SimulationEventsPerSecond(benchmark::State& state) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  SimConfig cfg;
  cfg.warmup_ns = 2'000;
  cfg.measure_ns = 20'000;
  std::uint64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    Simulation sim = Simulation::open_loop(subnet, cfg,
                                           {TrafficKind::kUniform, 0.2, 0, seed},
                                           0.6);
    const SimResult r = sim.run();
    events += r.events_processed;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimulationEventsPerSecond);

void BM_BurstAllToAll(benchmark::State& state) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const auto workload = all_to_all_personalized(16, 512);
  std::uint64_t packets = 0;
  for (auto _ : state) {
    SimConfig cfg;
    Simulation sim = Simulation::burst(subnet, cfg, workload);
    const BurstResult r = sim.run_to_completion();
    packets += r.packets;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
}
BENCHMARK(BM_BurstAllToAll);

void BM_LoadAnalysisPredict(benchmark::State& state) {
  const FatTreeFabric fabric{FatTreeParams(8, 2)};
  const MlidRouting scheme(fabric.params());
  const CompiledRoutes routes(fabric, scheme);
  const LoadAnalysis analysis(fabric, scheme, routes);
  const TrafficMatrix matrix =
      TrafficMatrix::uniform(fabric.params().num_nodes());
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis.predict(matrix));
  }
}
BENCHMARK(BM_LoadAnalysisPredict);

}  // namespace

namespace {

// One timed smoke simulation, reported as its own labeled series with the
// manifest carrying events/sec and queue internals.
void run_smoke(mlid::BenchReport& report) {
  using namespace mlid;
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  SimConfig cfg;
  cfg.warmup_ns = 2'000;
  cfg.measure_ns = 20'000;
  cfg.seed = 2;
  const auto start = std::chrono::steady_clock::now();
  Simulation sim = Simulation::open_loop(
      subnet, cfg, {TrafficKind::kUniform, 0.2, 0, 2}, 0.6);
  const SimResult r = sim.run();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  PointManifest manifest;
  manifest.sim_seed = cfg.seed;
  manifest.traffic_seed = 2;
  manifest.wall_seconds = wall;
  manifest.events_processed = r.events_processed;
  manifest.events_scheduled = r.events_scheduled;
  manifest.events_per_sec =
      wall > 0.0 ? static_cast<double>(r.events_processed) / wall : 0.0;
  manifest.queue = sim.queue_stats();
  report.add("smoke/MLID/4-port-3-tree", r, manifest);
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): google-benchmark keeps its own
// flag language (--benchmark_filter etc. -- CliOptions would reject it), so
// the harness flag this binary understands (--quick) is stripped from argv
// before benchmark::Initialize sees it.  After the benchmarks we emit the
// standard BENCH json with one labeled smoke simulation, so this binary's
// output is schema-compatible with every other bench.
int main(int argc, char** argv) {
  bool quick = false;
  std::vector<char*> args;
  std::string min_time_flag;  // outlives the argv google-benchmark keeps
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (quick) {
    min_time_flag = "--benchmark_min_time=0.01";
    args.push_back(min_time_flag.data());
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  BenchReport report(bench_name_from_path(argv[0]), /*seed=*/1,
                     /*threads=*/1, quick);
  run_smoke(report);
  std::printf("\n(wrote %s)\n", report.write().c_str());
  return 0;
}
