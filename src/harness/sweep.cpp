#include "harness/sweep.hpp"

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "common/text_table.hpp"
#include "obs/stream.hpp"
#include "parallel/sharded.hpp"

namespace mlid {

namespace {

// Feed each coordinate through a full SplitMix64 finalization so nearby
// grid points (vls 2 vs 4, load 0.40 vs 0.50) land in unrelated streams.
std::uint64_t mix_word(std::uint64_t h, std::uint64_t word) {
  return SplitMix64(h ^ word).next();
}

// Domain separator between the simulation and traffic stream families.
constexpr std::uint64_t kTrafficSeedDomain = 0x5EEDFACE5EEDFACEull;

}  // namespace

std::uint64_t sweep_point_seed(std::uint64_t base, std::string_view scheme,
                               int vls, double load) {
  std::uint64_t h = SplitMix64(base).next();
  // The registry's stable per-scheme seed key, not a hash of the name:
  // renaming a scheme must not move its streams, and SLID/MLID keep the
  // retired enum's 0/1 so pre-registry BENCH numbers reproduce.
  h = mix_word(h, scheme_seed_key(scheme));
  h = mix_word(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(vls)));
  h = mix_word(h, std::bit_cast<std::uint64_t>(load));
  return h;
}

std::uint64_t sweep_traffic_seed(std::uint64_t base, int vls, double load) {
  std::uint64_t h = SplitMix64(base ^ kTrafficSeedDomain).next();
  h = mix_word(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(vls)));
  h = mix_word(h, std::bit_cast<std::uint64_t>(load));
  return h;
}

std::vector<SweepPoint> run_sweep(const FigureSpec& base_spec,
                                  const SweepOptions& options) {
  FigureSpec spec = base_spec;
  if (options.quick) {
    spec.sim.warmup_ns = 5'000;
    spec.sim.measure_ns = 20'000;
    spec.loads = {0.10, 0.40, 0.80};
  }
  if (options.telemetry) spec.sim.telemetry = *options.telemetry;
  if (options.cc) spec.sim.cc = *options.cc;
  if (options.sample_interval_ns) {
    spec.sim.sample_interval_ns = *options.sample_interval_ns;
  }
  if (options.profile) spec.sim.profile = true;
  MLID_EXPECT(options.shards >= 1, "SweepOptions::shards must be >= 1");
  unsigned threads = options.threads;

  const FatTreeParams params(spec.m, spec.n);
  const FatTreeFabric fabric(params);

  // One subnet per scheme; simulations only read them.
  std::vector<std::unique_ptr<Subnet>> subnets;
  for (const std::string& scheme : spec.schemes) {
    subnets.push_back(std::make_unique<Subnet>(fabric, scheme));
  }

  // Policy arms of the grid (see FigureSpec::policies).
  const std::vector<PolicyConfig> arms =
      spec.policies.empty() ? std::vector<PolicyConfig>{spec.sim.policy}
                            : spec.policies;

  // Materialize the grid, then run the independent points on a small
  // worker pool (the points differ wildly in cost, so dynamic work
  // stealing via an atomic cursor beats static partitioning).
  struct Job {
    std::size_t subnet_index;
    SweepPoint point;
  };
  std::vector<Job> jobs;
  for (std::size_t s = 0; s < spec.schemes.size(); ++s) {
    for (const int vls : spec.vl_counts) {
      for (const double load : spec.loads) {
        for (const PolicyConfig& arm : arms) {
          jobs.push_back(
              Job{s, SweepPoint{spec.schemes[s], vls, load, arm, {}, {}}});
        }
      }
    }
  }

  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  threads = std::min<unsigned>(threads, static_cast<unsigned>(jobs.size()));

  // Denominator of the manifest's bytes_per_endport: every physical port in
  // the fabric (switch and node side alike).
  std::size_t fabric_ports = 0;
  for (DeviceId dev = 0; dev < fabric.fabric().num_devices(); ++dev) {
    fabric_ports +=
        static_cast<std::size_t>(fabric.fabric().device(dev).num_ports());
  }

  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> completed{0};
  const auto sweep_start = std::chrono::steady_clock::now();
  // Stderr heartbeat + per-point metrics line, shared by every worker.
  auto note_completed = [&](const SweepPoint& point) {
    const std::size_t done = completed.fetch_add(1) + 1;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sweep_start)
            .count();
    if (options.metrics != nullptr) {
      MetricsPoint mp;
      const std::string series =
          point.scheme + " " + std::to_string(point.vls) + "VL";
      mp.series = series;
      mp.load = point.load;
      mp.wall_seconds = point.manifest.wall_seconds;
      mp.events_processed = point.manifest.events_processed;
      mp.events_per_sec = point.manifest.events_per_sec;
      mp.completed = done;
      mp.total = jobs.size();
      options.metrics->point(mp);
    }
    if (options.progress) {
      const double eta =
          elapsed / static_cast<double>(done) *
          static_cast<double>(jobs.size() - done);
      // One fprintf call per line keeps concurrent workers from
      // interleaving mid-line; stdout stays clean for BENCH/json output.
      std::fprintf(stderr,
                   "progress: %zu/%zu points, %.1fs elapsed, eta %.1fs\n",
                   done, jobs.size(), elapsed, eta);
    }
  };
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      Job& job = jobs[i];
      SimConfig cfg = spec.sim;
      cfg.num_vls = job.point.vls;
      cfg.policy = job.point.policy;
      // Decorrelate the RNG streams across grid points while keeping each
      // point reproducible in isolation; the hash depends only on the
      // point's own coordinates, never on the grid shape or job index.
      cfg.seed = sweep_point_seed(spec.sim.seed, job.point.scheme,
                                  job.point.vls, job.point.load);
      TrafficConfig traffic = spec.traffic;
      traffic.seed = sweep_traffic_seed(spec.traffic.seed, job.point.vls,
                                        job.point.load);
      const auto start = std::chrono::steady_clock::now();
      // With several sweep workers already in flight the shards drain
      // inline (1 thread) to avoid oversubscribing the host; a
      // single-worker sweep lets the engine pick its own pool.
      ShardedSimulation sim = ShardedSimulation::open_loop(
          *subnets[job.subnet_index], cfg, traffic, job.point.load,
          {static_cast<std::uint32_t>(options.shards), threads > 1 ? 1u : 0u});
      job.point.result = sim.run();
      job.point.manifest.queue = sim.queue_stats();
      const std::size_t hot_bytes = sim.memory_footprint();
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      job.point.manifest.sim_seed = cfg.seed;
      job.point.manifest.traffic_seed = traffic.seed;
      job.point.manifest.wall_seconds = wall;
      job.point.manifest.events_processed = job.point.result.events_processed;
      job.point.manifest.events_scheduled = job.point.result.events_scheduled;
      job.point.manifest.events_per_sec =
          wall > 0.0
              ? static_cast<double>(job.point.result.events_processed) / wall
              : 0.0;
      job.point.manifest.threads = threads;
      job.point.manifest.shards = options.shards;
      job.point.manifest.policy = job.point.policy.forwarding;
      job.point.manifest.vl_map = job.point.policy.vl_map;
      job.point.manifest.bytes_per_endport =
          static_cast<double>(hot_bytes +
                              subnets[job.subnet_index]->routes()
                                  .memory_bytes()) /
          static_cast<double>(fabric_ports);
      job.point.manifest.profile = job.point.result.profile;
      note_completed(job.point);
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  std::vector<SweepPoint> points;
  points.reserve(jobs.size());
  for (auto& job : jobs) points.push_back(std::move(job.point));
  return points;
}

double saturation_throughput(const std::vector<SweepPoint>& points,
                             std::string_view scheme, int vls) {
  double best = 0.0;
  for (const auto& p : points) {
    if (p.scheme == scheme && p.vls == vls) {
      best = std::max(best, p.result.accepted_bytes_per_ns_per_node);
    }
  }
  return best;
}

double find_saturation_load(const Subnet& subnet, const SimConfig& cfg,
                            const TrafficConfig& traffic, double slack,
                            double tolerance) {
  MLID_EXPECT(slack > 0.0 && slack < 1.0, "slack must be a fraction");
  MLID_EXPECT(tolerance > 0.0 && tolerance < 1.0,
              "tolerance must be a fraction");
  auto keeps_up = [&](double load) {
    Simulation sim = Simulation::open_loop(subnet, cfg, traffic, load);
    const SimResult r = sim.run();
    // Offered bytes/ns/node at this load (endnode links carry one byte per
    // byte_time_ns at load 1.0).
    const double offered =
        load / static_cast<double>(cfg.byte_time_ns);
    return r.accepted_bytes_per_ns_per_node >= (1.0 - slack) * offered;
  };
  double lo = tolerance;  // assume the network is not saturated at ~0 load
  double hi = 1.0;
  if (keeps_up(hi)) return hi;
  if (!keeps_up(lo)) return 0.0;
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    (keeps_up(mid) ? lo : hi) = mid;
  }
  return lo;
}

Replication replicate(const Subnet& subnet, const SimConfig& cfg,
                      const TrafficConfig& traffic, double offered_load,
                      int runs) {
  MLID_EXPECT(runs >= 1, "need at least one replication");
  Replication rep;
  for (int i = 0; i < runs; ++i) {
    SimConfig run_cfg = cfg;
    run_cfg.seed = cfg.seed + static_cast<std::uint64_t>(i) * 7919u;
    TrafficConfig run_traffic = traffic;
    run_traffic.seed = traffic.seed + static_cast<std::uint64_t>(i) * 104729u;
    Simulation sim =
        Simulation::open_loop(subnet, run_cfg, run_traffic, offered_load);
    const SimResult r = sim.run();
    if (rep.runs == 0) rep.first = r;
    rep.accepted.add(r.accepted_bytes_per_ns_per_node);
    rep.avg_latency.add(r.avg_latency_ns);
    ++rep.runs;
  }
  return rep;
}

namespace {

// Series label.  The policy arm joins the label only when it differs from
// the defaults, so single-arm sweeps render byte-identically to the
// pre-policy harness.
std::string series_name(const std::string& scheme, int vls,
                        const PolicyConfig& policy) {
  std::ostringstream os;
  os << scheme << " " << vls << "VL";
  if (policy != PolicyConfig{}) {
    os << " [" << policy.forwarding;
    if (policy.vl_map != PolicyConfig{}.vl_map) os << "+" << policy.vl_map;
    os << "]";
  }
  return os.str();
}

}  // namespace

std::string render_figure_table(const FigureSpec& spec,
                                const std::vector<SweepPoint>& points) {
  std::ostringstream os;
  os << spec.title << "\n"
     << spec.m << "-port " << spec.n << "-tree, "
     << FatTreeParams(spec.m, spec.n).num_nodes() << " nodes, "
     << to_string(spec.traffic.kind) << " traffic, " << spec.sim.packet_bytes
     << "-byte packets\n";
  TextTable table({"series", "offered", "accepted B/ns/node", "avg lat ns",
                   "p99 lat ns", "avg hops", "max util", "delivered"});
  for (const auto& p : points) {
    const SimResult& r = p.result;
    table.add_row({series_name(p.scheme, p.vls, p.policy),
                   TextTable::num(p.load, 2),
                   TextTable::num(r.accepted_bytes_per_ns_per_node, 4),
                   TextTable::num(r.avg_latency_ns, 1),
                   TextTable::num(r.p99_latency_ns, 1),
                   TextTable::num(r.avg_hops, 2),
                   TextTable::num(r.max_link_utilization, 3),
                   std::to_string(r.packets_measured)});
  }
  os << table.to_string();
  return os.str();
}

std::string render_figure_csv(const FigureSpec& spec,
                              const std::vector<SweepPoint>& points) {
  TextTable table({"figure", "scheme", "vls", "offered_load",
                   "accepted_bytes_per_ns_per_node", "avg_latency_ns",
                   "p50_latency_ns", "p99_latency_ns", "avg_hops",
                   "mean_link_utilization", "max_link_utilization",
                   "packets_measured", "packets_dropped"});
  for (const auto& p : points) {
    const SimResult& r = p.result;
    table.add_row({spec.title, p.scheme,
                   std::to_string(p.vls), TextTable::num(p.load, 3),
                   TextTable::num(r.accepted_bytes_per_ns_per_node, 5),
                   TextTable::num(r.avg_latency_ns, 2),
                   TextTable::num(r.p50_latency_ns, 2),
                   TextTable::num(r.p99_latency_ns, 2),
                   TextTable::num(r.avg_hops, 3),
                   TextTable::num(r.mean_link_utilization, 4),
                   TextTable::num(r.max_link_utilization, 4),
                   std::to_string(r.packets_measured),
                   std::to_string(r.packets_dropped)});
  }
  return table.to_csv();
}

std::string render_figure_summary(const FigureSpec& spec,
                                  const std::vector<SweepPoint>& points) {
  std::ostringstream os;
  TextTable table({"series", "saturation B/ns/node", "latency@lowest-load ns"});
  std::map<int, std::pair<double, double>> ratio;  // vls -> (slid, mlid) sat
  for (const std::string& scheme : spec.schemes) {
    for (const int vls : spec.vl_counts) {
      const double sat = saturation_throughput(points, scheme, vls);
      double low_load_latency = 0.0;
      double lowest = 2.0;
      for (const auto& p : points) {
        if (p.scheme == scheme && p.vls == vls && p.load < lowest) {
          lowest = p.load;
          low_load_latency = p.result.avg_latency_ns;
        }
      }
      table.add_row({series_name(scheme, vls, spec.sim.policy),
                     TextTable::num(sat, 4),
                     TextTable::num(low_load_latency, 1)});
      if (scheme == "SLID") ratio[vls].first = sat;
      if (scheme == "MLID") ratio[vls].second = sat;
    }
  }
  os << table.to_string();
  for (const auto& [vls, pair] : ratio) {
    if (pair.first > 0.0 && pair.second > 0.0) {
      os << "MLID/SLID saturation throughput @" << vls << "VL: "
         << TextTable::num(pair.second / pair.first, 3) << "x\n";
    }
  }
  return os.str();
}

}  // namespace mlid
