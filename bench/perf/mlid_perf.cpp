// Host-performance benchmark driver: runs one workload in this process and
// reports what the simulator costs on the host -- wall time, throughput,
// set-up time, peak RSS -- plus per-layer numbers measured from outside, by
// timing calls into each module's public entry points and reading its
// public counters.
//
//   mlid_perf --workload=NAME [--seed=N] [--seconds=S] [--trace=FILE]
//             [--smoke] [--out=FILE]
//   mlid_perf --list
//
// Every value flag also takes the two-token form (--seed 3).  run.sh in this
// directory builds the binary and is the command to use; README.md lists the
// workloads, the metrics and the layer each metric belongs to.
//
// Simulated statistics are never reported as speed metrics: a change that
// only speeds the simulator up must leave them byte-identical, and the
// result_digest line (a hash of the profile-scrubbed results) checks that.
// Knobs the simulator may drop (event queue, event order, VL policy) stay at
// their defaults so the benchmark outlives them.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "parallel/sharded.hpp"
#include "routing/path.hpp"
#include "sim/engine.hpp"
#include "subnet/sm.hpp"
#include "subnet/subnet.hpp"

namespace {

using namespace mlid;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;
/// setup_s is the median of at least kSetupSamples bring-ups that together
/// take at least kSetupSeconds (capped at kMaxSetupSamples bring-ups).
constexpr std::size_t kSetupSamples = 5;
constexpr double kSetupSeconds = 0.5;
constexpr std::size_t kMaxSetupSamples = 1000;
/// (src, dst) pairs the routing probe walks, and lookups it times.
constexpr int kProbePairs = 4096;
constexpr std::uint64_t kProbeLookups = 1'000'000;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- workloads and flags -----------------------------------------------------

struct WorkloadInfo {
  const char* name;
  const char* why;
};

constexpr WorkloadInfo kWorkloads[] = {
    {"paper-figs",
     "the paper's own use: 432 short cache-resident runs of Figs 12-19 "
     "through run_sweep on the sequential engine (no shards, SM or CC)"},
    {"ft16-1shard",
     "FT(16,4) on one shard: hot state and event queue overflow the caches, "
     "so memory layout and queue structure dominate; the shard baseline"},
    {"ft16-4shard",
     "FT(16,4) on four shards: the only workload where windows, barriers, "
     "mailboxes and delivery-log replay do most of the work"},
    {"alltoall-burst",
     "closed-loop all-to-all on FT(8,3): drains about 1M resident packets "
     "through the burst driver"},
    {"churn-cc",
     "FT(8,3) with congestion control, a live SM repairing flapping uplinks "
     "and a 1 us interval sampler: the only user of subnet/ repair, cc/ and "
     "the timeline"},
};

void print_workloads(std::FILE* out) {
  for (const WorkloadInfo& w : kWorkloads) {
    std::fprintf(out, "%-15s %s\n", w.name, w.why);
  }
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: mlid_perf --workload=NAME [--seed=N] [--seconds=S] "
               "[--trace=FILE] [--smoke] [--out=FILE] | --list\n"
               "workloads:\n",
               message.c_str());
  print_workloads(stderr);
  std::exit(2);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;    ///< measuring budget; 0 = one repetition
  std::string trace_path;  ///< empty = untraced
  std::string out_path;    ///< run record; empty = none
  bool smoke = false;
};

Options parse(int argc, char** argv) {
  Options opt;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--list") {
      list = true;
      continue;
    }
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    std::string_view flag = arg;
    std::string_view value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      flag = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    const bool known = flag == "--workload" || flag == "--seed" ||
                       flag == "--seconds" || flag == "--trace" ||
                       flag == "--out";
    if (!known) usage_error("unknown flag '" + std::string(arg) + "'");
    if (!has_value) {
      if (i + 1 >= argc) usage_error(std::string(flag) + " needs a value");
      value = argv[++i];
    }
    const char* end = value.data() + value.size();
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      const auto [p, ec] = std::from_chars(value.data(), end, opt.seed);
      if (value.empty() || ec != std::errc() || p != end) {
        usage_error("malformed --seed '" + std::string(value) + "'");
      }
    } else if (flag == "--seconds") {
      const auto [p, ec] = std::from_chars(value.data(), end, opt.seconds);
      if (value.empty() || ec != std::errc() || p != end ||
          !(opt.seconds >= 0.0 && opt.seconds <= 3600.0)) {
        usage_error("--seconds wants a number in [0, 3600], got '" +
                    std::string(value) + "'");
      }
    } else if (value.empty()) {
      usage_error(std::string(flag) + " needs a file name");
    } else if (flag == "--trace") {
      opt.trace_path = value;
    } else {
      opt.out_path = value;
    }
  }
  if (list) {
    print_workloads(stdout);
    std::exit(0);
  }
  if (opt.workload.empty()) usage_error("--workload is required");
  const bool exists = std::any_of(
      std::begin(kWorkloads), std::end(kWorkloads),
      [&](const WorkloadInfo& w) { return opt.workload == w.name; });
  if (!exists) usage_error("unknown workload '" + opt.workload + "'");
  return opt;
}

// --- spans -------------------------------------------------------------------

/// Benchmark-side spans around calls into the simulator, kept in memory and
/// written as a Chrome trace at exit.  Each span has a name, start, end and
/// parent; every span of one operation (one repetition) shares its id.
/// A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Spans opened from now on belong to a new operation.
  void begin_op() noexcept { ++op_; }

  void open(std::string_view name) {
    const std::int64_t parent =
        stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    spans_.push_back({std::string(name), now_us(), 0.0, parent, op_});
    stack_.push_back(spans_.size() - 1);
  }

  void close() {
    spans_[stack_.back()].end_us = now_us();
    stack_.pop_back();
  }

  void write(const std::string& path, const std::string& process) const {
    JsonWriter json;
    json.begin_object().key("displayTimeUnit").value("ms");
    json.key("traceEvents").begin_array();
    json.begin_object()
        .key("name").value("process_name")
        .key("ph").value("M")
        .key("pid").value(1)
        .key("args").begin_object().key("name").value(process).end_object()
        .end_object();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& s = spans_[i];
      json.begin_object()
          .key("name").value(s.name)
          .key("cat").value("bench")
          .key("ph").value("X")
          .key("ts").value(s.start_us)
          .key("dur").value(s.end_us - s.start_us)
          .key("pid").value(1)
          .key("tid").value(1)
          .key("args").begin_object()
          .key("span").value(static_cast<std::uint64_t>(i))
          .key("parent").value(s.parent)
          .key("op").value(s.op)
          .end_object()
          .end_object();
    }
    json.end_array().end_object();
    std::ofstream out(path);
    out << json.str() << "\n";
    if (!out) usage_error("cannot write trace file '" + path + "'");
  }

 private:
  struct Record {
    std::string name;
    double start_us;
    double end_us;
    std::int64_t parent;  ///< index into spans_, -1 = root
    std::uint64_t op;
  };

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::uint64_t op_ = 0;
  std::vector<Record> spans_;
  std::vector<std::size_t> stack_;  ///< open spans, innermost last
};

class Span {
 public:
  Span(Tracer& tracer, std::string_view name)
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->open(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Runs `f` inside a span and adds its host seconds to `seconds`.
template <typename F>
auto timed(Tracer& tracer, std::string_view name, double& seconds, F&& f) {
  const Span span(tracer, name);
  const auto start = Clock::now();
  auto result = f();
  seconds += seconds_since(start);
  return result;
}

// --- what a workload reports -------------------------------------------------

/// Host seconds per bring-up stage.  The SM's construction counts as subnet
/// bring-up: both live in subnet/.
struct BringUp {
  double topology_s = 0.0;
  double subnet_s = 0.0;
  double engine_s = 0.0;

  [[nodiscard]] double total() const {
    return topology_s + subnet_s + engine_s;
  }
};

/// Routing-state facts of the workload's subnets, captured at bring-up.
struct Shape {
  std::size_t routes_bytes = 0;
  std::uint64_t lft_entries = 0;
};

/// One-off measurements taken once per process, after the first run.
struct Probe {
  double lookup_ns = 0.0;
  /// Engine construction seconds when the workload's engines are built
  /// inside a call the benchmark cannot split (run_sweep); 0 = use the
  /// bring-ups.
  double construct_s = 0.0;
  std::uint64_t sims = 0;    ///< extra simulations run by one-off checks
  std::uint64_t failed = 0;
  /// Process peak RSS after the first bring-up and run, before anything
  /// else: what one run of the workload costs, free of the allocator state
  /// later repetitions inherit.
  double peak_rss_mb = 0.0;
};

void add_profile(ProfileSummary& into, const ProfileSummary& p) {
  const auto w_into = static_cast<double>(into.windows);
  const auto w_p = static_cast<double>(p.windows);
  if (w_into + w_p > 0.0) {
    into.window_ns_mean =
        (into.window_ns_mean * w_into + p.window_ns_mean * w_p) /
        (w_into + w_p);
    into.mean_imbalance =
        (into.mean_imbalance * w_into + p.mean_imbalance * w_p) /
        (w_into + w_p);
  }
  into.max_imbalance = std::max(into.max_imbalance, p.max_imbalance);
  into.windows += p.windows;
  into.control_steps += p.control_steps;
  into.handoff_messages += p.handoff_messages;
  into.processing_ns += p.processing_ns;
  into.barrier_wait_ns += p.barrier_wait_ns;
  into.mailbox_ns += p.mailbox_ns;
  into.control_ns += p.control_ns;
}

/// What one timed repetition of a workload produced.  Model counters are
/// summed over its simulations and repeat exactly for one seed; the host
/// timings do not.
struct Rep {
  double wall_s = 0.0;             ///< the timed run phase
  std::vector<double> sim_wall_s;  ///< host seconds per simulation
  std::uint64_t sims = 0;          ///< operations attempted
  std::uint64_t failed = 0;        ///< operations that threw or failed a check
  std::uint64_t digest = kFnvOffset;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t events = 0;
  std::uint64_t sm_traps = 0;
  std::uint64_t sm_sweeps = 0;
  std::uint64_t sm_entries = 0;
  SimTime reconvergence_ns = 0;
  std::uint64_t becn_sent = 0;
  std::uint64_t fecn_marked = 0;
  std::uint64_t timeline_samples = 0;
  EventQueueStats queue;   ///< counts summed, watermarks max-merged
  ProfileSummary profile;  ///< engine self-profile, traced repetitions only
  std::size_t footprint_bytes = 0;  ///< the largest engine's hot state
  std::size_t footprint_routes = 0; ///< ... its subnet's routing tables
  std::size_t footprint_ports = 0;  ///< ... and its fabric's port count

  void add(SimResult r, double wall, bool ok) {
    count(wall, ok);
    generated += r.packets_generated;
    delivered += r.packets_delivered;
    dropped += r.packets_dropped;
    events += r.events_processed;
    sm_traps += r.sm_traps;
    sm_sweeps += r.sm_sweeps;
    sm_entries += r.sm_entries_programmed;
    reconvergence_ns = std::max(reconvergence_ns, r.reconvergence_ns);
    becn_sent += r.cc.becn_sent;
    fecn_marked += r.cc.fecn_marked;
    timeline_samples += r.timeline.samples.size();
    add_profile(profile, r.profile);
    r.profile = ProfileSummary{};
    digest = fnv1a(digest, to_json(r));
  }

  void add(const BurstResult& r, double wall, bool ok) {
    count(wall, ok);
    generated += r.packets;
    delivered += r.packets;
    events += r.events_processed;
    becn_sent += r.cc.becn_sent;
    fecn_marked += r.cc.fecn_marked;
    // Bursts carry no engine profile; the benchmark's own timing of the
    // drain stands in for the processing phase, as a sequential profile
    // defines it.
    profile.processing_ns += static_cast<std::uint64_t>(wall * 1e9);
    digest = fnv1a(digest, to_json(r));
  }

  void add_queue(const EventQueueStats& q) {
    queue.buckets = std::max(queue.buckets, q.buckets);
    queue.resizes += q.resizes;
    queue.overflow_pushes += q.overflow_pushes;
    queue.max_bucket_events =
        std::max(queue.max_bucket_events, q.max_bucket_events);
  }

  void add_memory(std::size_t hot, std::size_t routes, std::size_t ports) {
    if (hot < footprint_bytes) return;
    footprint_bytes = hot;
    footprint_routes = routes;
    footprint_ports = ports;
  }

 private:
  void count(double wall, bool ok) {
    ++sims;
    failed += ok ? 0 : 1;
    sim_wall_s.push_back(wall);
  }
};

/// Prints a failed check to stderr and returns false, so a check reads
/// `ok &= expect(cond, ...)`.
bool expect(bool cond, const std::string& workload, const std::string& what) {
  if (!cond) {
    std::fprintf(stderr, "check failed: %s: %s\n", workload.c_str(),
                 what.c_str());
  }
  return cond;
}

std::size_t total_ports(const FatTreeFabric& fabric) {
  const Fabric& g = fabric.fabric();
  std::size_t ports = 0;
  for (DeviceId dev = 0; dev < g.num_devices(); ++dev) {
    ports += static_cast<std::size_t>(g.device(dev).num_ports());
  }
  return ports;
}

Shape shape_of(const Subnet& subnet) {
  return {subnet.routes().memory_bytes(),
          subnet.init_stats().lft_entries_programmed};
}

/// Independent streams derived from the one --seed.
struct Seeds {
  std::uint64_t sim;
  std::uint64_t traffic;
  std::uint64_t faults;

  explicit Seeds(std::uint64_t seed) {
    SplitMix64 split(seed);
    sim = split.next();
    traffic = split.next();
    faults = split.next();
  }
};

/// Keeps the probe's lookups observable so the timed loop survives.
volatile std::uint64_t g_lookup_sink = 0;

/// Host ns per `routes.lft(sw).lookup(dlid)`, timed over the (switch, DLID)
/// hops of kProbePairs random (src, dst) paths drawn from `seed`.
double lookup_ns(const FatTreeFabric& fabric, const Subnet& subnet,
                 std::uint64_t seed, Tracer& tracer) {
  const Fabric& g = fabric.fabric();
  const std::uint32_t nodes = fabric.params().num_nodes();
  Xoshiro256 rng(seed);
  std::vector<std::pair<SwitchId, Lid>> hops;
  {
    const Span span(tracer, "trace_path");
    for (int i = 0; i < kProbePairs; ++i) {
      const auto src = static_cast<NodeId>(rng.below(nodes));
      auto dst = static_cast<NodeId>(rng.below(nodes - 1));
      if (dst >= src) ++dst;
      const Lid dlid = subnet.select_dlid(src, dst);
      for (const PathHop& hop :
           trace_path(fabric, subnet.routes(), src, dlid).hops) {
        const Device& dev = g.device(hop.device);
        if (dev.kind() == DeviceKind::kSwitch) {
          hops.emplace_back(dev.switch_id, dlid);
        }
      }
    }
  }
  MLID_EXPECT(!hops.empty(), "routing probe found no switch hops");
  const CompiledRoutes& routes = subnet.routes();
  const Span span(tracer, "CompactLft::lookup");
  std::uint64_t calls = 0;
  std::uint64_t sink = 0;
  const auto start = Clock::now();
  while (calls < kProbeLookups) {
    for (const auto& [sw, dlid] : hops) sink += routes.lft(sw).lookup(dlid);
    calls += hops.size();
  }
  const double ns = seconds_since(start) * 1e9 / static_cast<double>(calls);
  g_lookup_sink = sink;
  return ns;
}

// --- the workloads -----------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds what one run needs -- fabrics, subnets, SM, engine -- timing
  /// each stage.  `profile` turns the engine self-profiler on.
  virtual BringUp bring_up(bool profile, Tracer& tracer) = 0;

  /// The timed phase on what bring_up() built, with the workload's checks.
  /// Releases the engine before returning.
  virtual Rep run(Tracer& tracer) = 0;

  /// Once per process, after a run and before tear_down(): the routing
  /// probe and any check that needs simulations of its own.
  virtual Probe probe(Tracer& tracer) = 0;

  /// Releases everything bring_up() built.
  virtual void tear_down() = 0;

  Shape shape;
};

/// Figs 12-19: four fabrics, uniform and 20% centric traffic, SLID and MLID
/// at 1, 2 and 4 VLs, 9 loads each, through run_sweep on one worker.
class PaperFigs final : public Workload {
 public:
  explicit PaperFigs(const Options& opt) : seeds_(opt.seed) {
    constexpr int kShapes[4][2] = {{4, 3}, {4, 4}, {8, 2}, {8, 3}};
    int figure = 12;
    for (const TrafficKind kind :
         {TrafficKind::kUniform, TrafficKind::kCentric}) {
      for (const auto& mn : kShapes) {
        FigureSpec spec;
        spec.title = "Figure " + std::to_string(figure++);
        spec.m = mn[0];
        spec.n = mn[1];
        spec.traffic.kind = kind;
        spec.traffic.hot_fraction = 0.20;
        spec.traffic.hot_node = 0;
        spec.traffic.seed = seeds_.traffic;
        spec.sim.seed = seeds_.sim;
        // Smoke runs the VL-1 series at the loads near and past saturation,
        // on the full windows: shorter ones let SLID match MLID at VL 1 on
        // some seeds.
        if (opt.smoke) {
          spec.vl_counts = {1};
          spec.loads = {0.65, 0.80, 0.95};
        }
        specs_.push_back(std::move(spec));
      }
    }
  }

  BringUp bring_up(bool profile, Tracer& tracer) override {
    profile_ = profile;
    BringUp b;
    shape = {};
    for (const FigureSpec& spec : specs_) {
      fabrics_.push_back(timed(tracer, "FatTreeFabric", b.topology_s, [&] {
        return std::make_unique<FatTreeFabric>(FatTreeParams(spec.m, spec.n));
      }));
      for (const std::string& scheme : spec.schemes) {
        subnets_.push_back(timed(tracer, "Subnet", b.subnet_s, [&] {
          return std::make_unique<Subnet>(*fabrics_.back(), scheme);
        }));
        const Shape s = shape_of(*subnets_.back());
        shape.routes_bytes += s.routes_bytes;
        shape.lft_entries += s.lft_entries;
      }
    }
    return b;
  }

  Rep run(Tracer& tracer) override {
    Rep rep;
    SweepOptions options;
    options.threads = 1;
    options.profile = profile_;
    for (std::size_t f = 0; f < specs_.size(); ++f) {
      const FigureSpec& spec = specs_[f];
      const std::uint64_t grid =
          spec.schemes.size() * spec.vl_counts.size() * spec.loads.size();
      std::vector<SweepPoint> points;
      const auto start = Clock::now();
      try {
        const Span span(tracer, "run_sweep");
        points = run_sweep(spec, options);
      } catch (const ContractViolation& e) {
        std::fprintf(stderr, "check failed: paper-figs: %s: %s\n",
                     spec.title.c_str(), e.what());
        rep.sims += grid;
        rep.failed += grid;
        continue;
      }
      rep.wall_s += seconds_since(start);
      const double mlid = saturation_throughput(points, "MLID", 1);
      const double slid = saturation_throughput(points, "SLID", 1);
      const bool figure_ok = expect(
          mlid > slid, "paper-figs",
          spec.title + ": MLID saturation " + std::to_string(mlid) +
              " not above SLID " + std::to_string(slid) + " at VL 1");
      const std::size_t ports = total_ports(*fabrics_[f]);
      for (SweepPoint& p : points) {
        const std::string where = spec.title + " " + p.scheme + " " +
                                  std::to_string(p.vls) + "VL load " +
                                  std::to_string(p.load);
        bool ok = figure_ok;
        ok &= expect(p.result.packets_dropped == 0, "paper-figs",
                     where + ": dropped packets");
        const double offered =
            p.load / static_cast<double>(spec.sim.byte_time_ns);
        ok &= expect(p.result.accepted_bytes_per_ns_per_node <= 1.05 * offered,
                     "paper-figs", where + ": accepted above 1.05x offered");
        const Subnet& subnet = *subnets_[2 * f + (p.scheme == "MLID" ? 1 : 0)];
        const std::size_t routes = subnet.routes().memory_bytes();
        const auto hot = static_cast<std::size_t>(
            p.manifest.bytes_per_endport * static_cast<double>(ports));
        rep.add_memory(hot > routes ? hot - routes : 0, routes, ports);
        rep.add_queue(p.manifest.queue);
        rep.add(std::move(p.result), p.manifest.wall_seconds, ok);
      }
    }
    return rep;
  }

  Probe probe(Tracer& tracer) override {
    Probe p;
    // The largest paper fabric: FT(8,3) under MLID.
    p.lookup_ns = lookup_ns(*fabrics_[3], *subnets_[7], seeds_.traffic, tracer);
    // run_sweep builds its engines internally; build one per subnet here
    // (4 VLs, the largest per-port state) to see what construction costs.
    const auto start = Clock::now();
    for (std::size_t s = 0; s < subnets_.size(); ++s) {
      const FigureSpec& spec = specs_[s / 2];
      SimConfig cfg = spec.sim;
      cfg.num_vls = 4;
      const Span span(tracer, "Simulation::open_loop");
      const Simulation sim =
          Simulation::open_loop(*subnets_[s], cfg, spec.traffic, 0.05);
    }
    p.construct_s = seconds_since(start);
    return p;
  }

  void tear_down() override {
    subnets_.clear();
    fabrics_.clear();
  }

 private:
  Seeds seeds_;
  bool profile_ = false;
  std::vector<FigureSpec> specs_;
  std::vector<std::unique_ptr<FatTreeFabric>> fabrics_;
  std::vector<std::unique_ptr<Subnet>> subnets_;  ///< SLID, MLID per fabric
};

/// FT(16,4) under PartialMLID-lmc2 at uniform load 0.3 through
/// ShardedSimulation; the shard count is the only difference between the
/// two ft16 workloads, so their digests must match.
class Ft16 final : public Workload {
 public:
  Ft16(const Options& opt, std::uint32_t shards)
      : seeds_(opt.seed), smoke_(opt.smoke) {
    const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
    par_ = {shards, std::min(shards, hw)};
    traffic_.kind = TrafficKind::kUniform;
    traffic_.seed = seeds_.traffic;
  }

  BringUp bring_up(bool profile, Tracer& tracer) override {
    BringUp b;
    fabric_ = timed(tracer, "FatTreeFabric", b.topology_s, [] {
      return std::make_unique<FatTreeFabric>(FatTreeParams(16, 4));
    });
    subnet_ = timed(tracer, "Subnet", b.subnet_s, [&] {
      return std::make_unique<Subnet>(*fabric_, "PartialMLID-lmc2");
    });
    shape = shape_of(*subnet_);
    const SimConfig cfg = config(profile, smoke_);
    engine_ = timed(tracer, "ShardedSimulation::open_loop", b.engine_s, [&] {
      return std::make_unique<Engine>(*subnet_, cfg, traffic_, par_);
    });
    return b;
  }

  Rep run(Tracer& tracer) override {
    Rep rep;
    const auto start = Clock::now();
    SimResult r = [&] {
      const Span span(tracer, "ShardedSimulation::run");
      return engine_->sim.run();
    }();
    rep.wall_s = seconds_since(start);
    rep.add_queue(engine_->sim.queue_stats());
    rep.add_memory(engine_->sim.memory_footprint(), shape.routes_bytes,
                   total_ports(*fabric_));
    engine_.reset();
    const std::string name = par_.shards == 1 ? "ft16-1shard" : "ft16-4shard";
    bool ok = expect(r.packets_dropped == 0, name, "dropped packets");
    ok &= expect(r.packets_delivered > 0, name, "nothing delivered");
    rep.add(std::move(r), rep.wall_s, ok);
    return rep;
  }

  Probe probe(Tracer& tracer) override {
    Probe p;
    p.lookup_ns = lookup_ns(*fabric_, *subnet_, seeds_.traffic, tracer);
    if (par_.shards == 1) return p;
    // Shard identity on a short window: one shard and four must agree on
    // every simulated statistic.
    const SimConfig cfg = config(false, /*short_window=*/true);
    const auto short_run = [&](ShardOptions par) {
      const Span span(tracer, "ShardedSimulation::run");
      return to_json(
          ShardedSimulation::open_loop(*subnet_, cfg, traffic_, kLoad, par)
              .run());
    };
    p.sims = 2;
    if (!expect(short_run({1, 1}) == short_run(par_), "ft16-4shard",
                "1 and 4 shards diverge on a short window")) {
      p.failed = 2;
    }
    return p;
  }

  void tear_down() override {
    engine_.reset();
    subnet_.reset();
    fabric_.reset();
  }

 private:
  static constexpr double kLoad = 0.3;

  /// Holds the engine where the factory built it.  ShardedSimulation must
  /// not be moved -- its shards keep pointers into the driver object -- so
  /// the member is initialized straight from the factory's return value.
  struct Engine {
    Engine(const Subnet& subnet, const SimConfig& cfg,
           const TrafficConfig& traffic, ShardOptions par)
        : sim(ShardedSimulation::open_loop(subnet, cfg, traffic, kLoad, par)) {
    }
    ShardedSimulation sim;
  };

  [[nodiscard]] SimConfig config(bool profile, bool short_window) const {
    SimConfig cfg;
    cfg.seed = seeds_.sim;
    cfg.profile = profile;
    cfg.warmup_ns = short_window ? 500 : 2'000;
    cfg.measure_ns = short_window ? 2'000 : 40'000;
    return cfg;
  }

  Seeds seeds_;
  bool smoke_;
  ShardOptions par_;
  TrafficConfig traffic_;
  std::unique_ptr<FatTreeFabric> fabric_;
  std::unique_ptr<Subnet> subnet_;
  std::unique_ptr<Engine> engine_;
};

/// FT(8,3) every-pair exchange of 16 KiB (1 KiB in smoke mode) per pair,
/// MLID, 2 VLs, all segments queued at t = 0.
class AllToAllBurst final : public Workload {
 public:
  explicit AllToAllBurst(const Options& opt)
      : seeds_(opt.seed), bytes_per_pair_(opt.smoke ? 1024u : 16384u) {}

  BringUp bring_up(bool profile, Tracer& tracer) override {
    (void)profile;  // bursts have no engine self-profile
    BringUp b;
    fabric_ = timed(tracer, "FatTreeFabric", b.topology_s, [] {
      return std::make_unique<FatTreeFabric>(FatTreeParams(8, 3));
    });
    subnet_ = timed(tracer, "Subnet", b.subnet_s, [&] {
      return std::make_unique<Subnet>(*fabric_, "MLID");
    });
    shape = shape_of(*subnet_);
    SimConfig cfg;
    cfg.seed = seeds_.sim;
    cfg.num_vls = 2;
    packet_bytes_ = cfg.packet_bytes;
    engine_.emplace(timed(tracer, "Simulation::burst", b.engine_s, [&] {
      return Simulation::burst(
          *subnet_, cfg,
          all_to_all_personalized(fabric_->params().num_nodes(),
                                  bytes_per_pair_));
    }));
    return b;
  }

  Rep run(Tracer& tracer) override {
    Rep rep;
    const auto start = Clock::now();
    const BurstResult r = [&] {
      const Span span(tracer, "Simulation::run_to_completion");
      return engine_->run_to_completion();
    }();
    rep.wall_s = seconds_since(start);
    rep.add_queue(engine_->queue_stats());
    rep.add_memory(engine_->memory_footprint(), shape.routes_bytes,
                   total_ports(*fabric_));
    engine_.reset();
    const std::uint64_t nodes = fabric_->params().num_nodes();
    const std::uint64_t messages = nodes * (nodes - 1);
    const std::uint64_t segments =
        (bytes_per_pair_ + packet_bytes_ - 1) / packet_bytes_;
    bool ok = expect(r.messages == messages, "alltoall-burst",
                     "messages " + std::to_string(r.messages) + " != " +
                         std::to_string(messages));
    ok &= expect(r.packets == messages * segments, "alltoall-burst",
                 "packets " + std::to_string(r.packets) + " != " +
                     std::to_string(messages * segments));
    ok &= expect(r.total_bytes == messages * bytes_per_pair_, "alltoall-burst",
                 "bytes " + std::to_string(r.total_bytes) + " != " +
                     std::to_string(messages * bytes_per_pair_));
    rep.add(r, rep.wall_s, ok);
    return rep;
  }

  Probe probe(Tracer& tracer) override {
    Probe p;
    p.lookup_ns = lookup_ns(*fabric_, *subnet_, seeds_.traffic, tracer);
    return p;
  }

  void tear_down() override {
    engine_.reset();
    subnet_.reset();
    fabric_.reset();
  }

 private:
  Seeds seeds_;
  std::uint32_t bytes_per_pair_;
  std::uint32_t packet_bytes_ = 0;
  std::unique_ptr<FatTreeFabric> fabric_;
  std::unique_ptr<Subnet> subnet_;
  std::optional<Simulation> engine_;
};

/// FT(8,3) MLID, 2 VLs, uniform load 0.4 with congestion control, a live
/// SM and 4 uplinks flapping (start 20 us, period 40 us, down 10 us), the
/// interval sampler at 1 us; 5 ms simulated (200 us in smoke mode).
class ChurnCc final : public Workload {
 public:
  explicit ChurnCc(const Options& opt) : seeds_(opt.seed), smoke_(opt.smoke) {}

  BringUp bring_up(bool profile, Tracer& tracer) override {
    BringUp b;
    fabric_ = timed(tracer, "FatTreeFabric", b.topology_s, [] {
      return std::make_unique<FatTreeFabric>(FatTreeParams(8, 3));
    });
    subnet_ = timed(tracer, "Subnet", b.subnet_s, [&] {
      return std::make_unique<Subnet>(*fabric_, "MLID");
    });
    sm_ = timed(tracer, "SubnetManager", b.subnet_s, [&] {
      return std::make_unique<SubnetManager>(*fabric_, *subnet_);
    });
    shape = shape_of(*subnet_);
    SimConfig cfg;
    cfg.seed = seeds_.sim;
    cfg.profile = profile;
    cfg.num_vls = 2;
    cfg.cc.enabled = true;
    cfg.sample_interval_ns = 1'000;
    cfg.warmup_ns = 20'000;
    cfg.measure_ns = smoke_ ? 180'000 : 4'980'000;
    TrafficConfig traffic;
    traffic.kind = TrafficKind::kUniform;
    traffic.seed = seeds_.traffic;
    engine_.emplace(timed(tracer, "Simulation::open_loop", b.engine_s, [&] {
      OpenLoopOptions options;
      options.live_sm = sm_.get();
      options.faults = FaultSchedule::periodic_uplink_churn(
          *fabric_, /*links=*/4, /*start_at=*/20'000, /*period_ns=*/40'000,
          /*downtime_ns=*/10'000, /*until=*/cfg.end_time(), seeds_.faults);
      return Simulation::open_loop(*subnet_, cfg, traffic, 0.4, options);
    }));
    return b;
  }

  Rep run(Tracer& tracer) override {
    Rep rep;
    const auto start = Clock::now();
    SimResult r = [&] {
      const Span span(tracer, "Simulation::run");
      return engine_->run();
    }();
    rep.wall_s = seconds_since(start);
    rep.add_queue(engine_->queue_stats());
    rep.add_memory(engine_->memory_footprint(), shape.routes_bytes,
                   total_ports(*fabric_));
    engine_.reset();
    bool ok = expect(r.sm_traps > 0, "churn-cc", "no SM traps");
    ok &= expect(r.sm_sweeps > 0, "churn-cc", "no SM sweeps");
    ok &= expect(r.cc.becn_sent > 0, "churn-cc", "no BECNs");
    // Unroutable drops are legitimate here: a repair withdraws the routes a
    // switch can no longer reach under up*/down*, and packets already in
    // flight to it die.  A broken repair shows instead as drops of packets
    // injected while the SM was converged.
    ok &= expect(r.drops_post_convergence == 0, "churn-cc",
                 std::to_string(r.drops_post_convergence) +
                     " drops of packets injected after convergence");
    ok &= expect(static_cast<double>(r.packets_delivered) >=
                     0.95 * static_cast<double>(r.packets_generated),
                 "churn-cc", "delivered below 95% of generated");
    rep.add(std::move(r), rep.wall_s, ok);
    return rep;
  }

  Probe probe(Tracer& tracer) override {
    Probe p;
    // Every flap has recovered by the end of the run, so the fabric is
    // whole again and the subnet's tables route it.
    p.lookup_ns = lookup_ns(*fabric_, *subnet_, seeds_.traffic, tracer);
    return p;
  }

  void tear_down() override {
    engine_.reset();
    sm_.reset();
    subnet_.reset();
    fabric_.reset();
  }

 private:
  Seeds seeds_;
  bool smoke_;
  std::unique_ptr<FatTreeFabric> fabric_;
  std::unique_ptr<Subnet> subnet_;
  std::unique_ptr<SubnetManager> sm_;
  std::optional<Simulation> engine_;
};

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "paper-figs") return std::make_unique<PaperFigs>(opt);
  if (opt.workload == "ft16-1shard") return std::make_unique<Ft16>(opt, 1);
  if (opt.workload == "ft16-4shard") return std::make_unique<Ft16>(opt, 4);
  if (opt.workload == "alltoall-burst") {
    return std::make_unique<AllToAllBurst>(opt);
  }
  return std::make_unique<ChurnCc>(opt);
}

// --- measuring ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The end-to-end metrics; every other metric belongs to one layer.
bool is_end_to_end(std::string_view name) {
  return name == "wall_s" || name == "pkts_per_s" || name == "setup_s" ||
         name == "peak_rss_mb";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename F>
std::vector<double> each(const std::vector<Rep>& reps, F&& f) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(f(r));
  return v;
}

std::vector<Metric> collect_metrics(const std::vector<BringUp>& ups,
                                    const std::vector<Rep>& reps,
                                    const std::vector<Rep>& traced,
                                    const Probe& probe, const Shape& shape,
                                    std::uint64_t attempted,
                                    std::uint64_t failed) {
  const Rep& rep = reps.front();  // model counters repeat exactly
  const auto up = [&](auto f) {
    std::vector<double> v;
    for (const BringUp& b : ups) v.push_back(f(b));
    return median(std::move(v));
  };
  const double wall = median(each(reps, [](const Rep& r) { return r.wall_s; }));
  const double peak = probe.peak_rss_mb;
  const double events = static_cast<double>(rep.events);
  std::vector<double> sim_walls;
  for (const Rep& r : reps) {
    sim_walls.insert(sim_walls.end(), r.sim_wall_s.begin(), r.sim_wall_s.end());
  }

  std::vector<Metric> m = {
      {"wall_s", wall, "s"},
      {"pkts_per_s",
       median(each(reps,
                   [](const Rep& r) {
                     return ratio(static_cast<double>(r.delivered), r.wall_s);
                   })),
       "pkt/s"},
      {"setup_s", up([](const BringUp& b) { return b.total(); }), "s"},
      {"peak_rss_mb", peak, "MiB"},
      {"fail_frac",
       ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"},
      {"topology.build_s", up([](const BringUp& b) { return b.topology_s; }),
       "s"},
      {"subnet.bringup_s", up([](const BringUp& b) { return b.subnet_s; }),
       "s"},
      {"subnet.lft_entries", static_cast<double>(shape.lft_entries), "count"},
      {"sm.traps", static_cast<double>(rep.sm_traps), "count"},
      {"sm.sweeps", static_cast<double>(rep.sm_sweeps), "count"},
      {"sm.entries_programmed", static_cast<double>(rep.sm_entries), "count"},
      {"sm.reconvergence_us",
       static_cast<double>(std::max<SimTime>(rep.reconvergence_ns, 0)) / 1e3,
       "sim_us"},
      {"sm.drop_frac",
       ratio(static_cast<double>(rep.dropped),
             static_cast<double>(rep.generated)),
       "ratio"},
      {"routing.lft_kb", static_cast<double>(shape.routes_bytes) / 1024.0,
       "KiB"},
      {"routing.lookup_ns", probe.lookup_ns, "ns"},
      {"sim.construct_s",
       probe.construct_s > 0.0
           ? probe.construct_s
           : up([](const BringUp& b) { return b.engine_s; }),
       "s"},
      {"sim.events", events, "count"},
      {"sim.events_per_s", ratio(events, wall), "1/s"},
      {"sim.ns_per_event", ratio(wall * 1e9, events), "ns"},
      {"sim.events_per_pkt", ratio(events, static_cast<double>(rep.delivered)),
       "ratio"},
      {"sim.footprint_mb", static_cast<double>(rep.footprint_bytes) / kMiB,
       "MiB"},
      {"sim.bytes_per_endport",
       ratio(static_cast<double>(rep.footprint_bytes + rep.footprint_routes),
             static_cast<double>(rep.footprint_ports)),
       "B"},
      {"sim.unaccounted_mb",
       peak - static_cast<double>(rep.footprint_bytes + shape.routes_bytes) /
                  kMiB,
       "MiB"},
      {"queue.buckets", static_cast<double>(rep.queue.buckets), "count"},
      {"queue.resizes", static_cast<double>(rep.queue.resizes), "count"},
      {"queue.max_bucket_events",
       static_cast<double>(rep.queue.max_bucket_events), "count"},
      {"queue.overflow_pushes", static_cast<double>(rep.queue.overflow_pushes),
       "count"},
      {"cc.becn_sent", static_cast<double>(rep.becn_sent), "count"},
      {"cc.fecn_marked", static_cast<double>(rep.fecn_marked), "count"},
      {"cc.becn_per_kpkt",
       ratio(1e3 * static_cast<double>(rep.becn_sent),
             static_cast<double>(rep.delivered)),
       "1/kpkt"},
      {"obs.timeline_samples", static_cast<double>(rep.timeline_samples),
       "count"},
      {"harness.points", static_cast<double>(rep.sims), "count"},
      {"harness.point_wall_p50_ms", 1e3 * quantile(sim_walls, 0.50), "ms"},
      {"harness.point_wall_p95_ms", 1e3 * quantile(sim_walls, 0.95), "ms"},
  };
  if (traced.empty()) return m;

  // The engine self-profile exists only in traced runs.  The phase shares
  // are of the fleet's busy time (per-shard processing plus barrier wait,
  // summed over shards), so they stay comparable across shard counts.
  const auto prof = [&](auto f) {
    return median(each(traced, [&](const Rep& r) { return f(r.profile); }));
  };
  const auto share = [](const ProfileSummary& p, std::uint64_t ns) {
    return ratio(static_cast<double>(ns),
                 static_cast<double>(p.processing_ns + p.barrier_wait_ns));
  };
  const double traced_wall =
      median(each(traced, [](const Rep& r) { return r.wall_s; }));
  const std::vector<Metric> layer = {
      {"parallel.windows",
       prof([](const ProfileSummary& p) {
         return static_cast<double>(p.windows);
       }),
       "count"},
      {"parallel.window_ns_mean",
       prof([](const ProfileSummary& p) { return p.window_ns_mean; }),
       "sim_ns"},
      {"parallel.barrier_frac",
       prof([](const ProfileSummary& p) { return p.barrier_wait_fraction(); }),
       "ratio"},
      {"parallel.mean_imbalance",
       prof([](const ProfileSummary& p) { return p.mean_imbalance; }), "ratio"},
      {"parallel.max_imbalance",
       prof([](const ProfileSummary& p) { return p.max_imbalance; }), "ratio"},
      {"parallel.handoffs_per_event",
       ratio(prof([](const ProfileSummary& p) {
               return static_cast<double>(p.handoff_messages);
             }),
             events),
       "ratio"},
      {"parallel.processing_s",
       prof([](const ProfileSummary& p) {
         return static_cast<double>(p.processing_ns) / 1e9;
       }),
       "s"},
      {"parallel.mailbox_frac",
       prof([&](const ProfileSummary& p) { return share(p, p.mailbox_ns); }),
       "ratio"},
      {"parallel.control_frac",
       prof([&](const ProfileSummary& p) { return share(p, p.control_ns); }),
       "ratio"},
      {"parallel.control_steps",
       prof([](const ProfileSummary& p) {
         return static_cast<double>(p.control_steps);
       }),
       "count"},
      {"obs.trace_overhead", ratio(traced_wall, wall) - 1.0, "ratio"},
  };
  m.insert(m.end(), layer.begin(), layer.end());
  return m;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  s.erase(s.find_last_not_of(' ') + 1);
  return s.empty() ? "unknown" : s;
#else
  return "unknown";
#endif
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// The run record run.sh keeps and compare.py reads.
void write_record(const Options& opt, std::size_t reps, bool traced,
                  const std::string& digest, bool correct,
                  std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics, std::time_t started) {
  JsonWriter json;
  json.begin_object()
      .key("schema").value("mlid-perf-v1")
      .key("workload").value(opt.workload)
      .key("seed").value(opt.seed)
      .key("seconds").value(opt.seconds)
      .key("smoke").value(opt.smoke)
      .key("traced").value(traced)
      .key("reps").value(static_cast<std::uint64_t>(reps))
      .key("started_unix").value(static_cast<std::int64_t>(started))
      .key("result_digest").value(digest)
      .key("correct").value(correct)
      .key("attempted").value(attempted)
      .key("failed").value(failed);
  json.key("host").begin_object()
      .key("nproc").value(
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .key("cpu").value(cpu_model())
      .key("compiler").value(compiler())
      .key("git_describe").value(git_describe())
      .end_object();
  json.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    json.key(m.name).begin_object()
        .key("value").value(m.value)
        .key("unit").value(m.unit)
        .end_object();
  }
  json.end_object().end_object();
  std::ofstream out(opt.out_path);
  out << json.str() << "\n";
  if (!out) usage_error("cannot write run record '" + opt.out_path + "'");
}

/// A repetition whose run threw: one failed operation.
Rep run_checked(Workload& w, const std::string& name, Tracer& tracer) {
  try {
    return w.run(tracer);
  } catch (const ContractViolation& e) {
    std::fprintf(stderr, "check failed: %s: %s\n", name.c_str(), e.what());
    Rep rep;
    rep.sims = 1;
    rep.failed = 1;
    return rep;
  }
}

int run(const Options& opt) {
  const std::time_t started = std::time(nullptr);
  const std::unique_ptr<Workload> w = make_workload(opt);
  Tracer quiet(false);
  Tracer tracer(!opt.trace_path.empty());

  // Bring-ups and timed runs alternate, so only one engine is resident at a
  // time.  Repetitions continue while the next one is expected to end
  // within the budget; there is always at least one.  A traced run spends
  // half of --seconds here and about as long on the traced pass below.
  const double budget = tracer.enabled() ? opt.seconds / 2 : opt.seconds;
  std::vector<BringUp> ups;
  std::vector<Rep> reps;
  Probe probe;
  const auto start = Clock::now();
  for (;;) {
    const auto rep_start = Clock::now();
    ups.push_back(w->bring_up(false, quiet));
    reps.push_back(run_checked(*w, opt.workload, quiet));
    if (reps.size() == 1) {
      const double peak = peak_rss_mb();
      probe = w->probe(quiet);
      probe.peak_rss_mb = peak;
    }
    w->tear_down();
    if (seconds_since(start) + seconds_since(rep_start) > budget) break;
  }
  // Cheap bring-ups are repeated until they add up to kSetupSeconds (not in
  // smoke mode), so their median is as steady as that of expensive ones.
  const double setup_budget = opt.smoke ? 0.0 : kSetupSeconds;
  double setup_seconds = 0.0;
  for (const BringUp& b : ups) setup_seconds += b.total();
  while (ups.size() < kSetupSamples ||
         (setup_seconds < setup_budget && ups.size() < kMaxSetupSamples)) {
    ups.push_back(w->bring_up(false, quiet));
    setup_seconds += ups.back().total();
    w->tear_down();
  }

  // The traced pass repeats the untraced one with the self-profiler on and
  // spans recorded; its wall time against the untraced one is the overhead.
  std::vector<Rep> traced;
  std::uint64_t attempted = probe.sims;
  std::uint64_t failed = probe.failed;
  if (tracer.enabled()) {
    for (std::size_t i = 0; i < reps.size(); ++i) {
      tracer.begin_op();
      const Span span(tracer, opt.workload);
      w->bring_up(true, tracer);
      traced.push_back(run_checked(*w, opt.workload, tracer));
      if (i == 0) {
        const Probe p = w->probe(tracer);
        attempted += p.sims;
        failed += p.failed;
      }
      w->tear_down();
    }
  }

  // Every repetition of one seed must produce the same results.
  const std::uint64_t digest = reps.front().digest;
  for (const std::vector<Rep>* pass : {&reps, &traced}) {
    for (const Rep& r : *pass) {
      attempted += r.sims;
      failed += r.failed;
      if (r.digest != digest) {
        std::fprintf(stderr,
                     "check failed: %s: repetitions disagree (%s vs %s)\n",
                     opt.workload.c_str(), hex(r.digest).c_str(),
                     hex(digest).c_str());
        failed += r.sims - r.failed;
      }
    }
  }
  const bool correct = failed == 0;

  const std::vector<Metric> metrics = collect_metrics(
      ups, reps, traced, probe, w->shape, attempted, failed);
  std::printf("# workload %s seed %llu reps %zu traced %s%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              reps.size(), tracer.enabled() ? "yes" : "no",
              opt.smoke ? " smoke" : "");
  std::printf("result_digest %s\n", hex(digest).c_str());
  for (const Metric& m : metrics) {
    std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (tracer.enabled()) {
    tracer.write(opt.trace_path, "mlid_perf " + opt.workload);
  }
  if (!opt.out_path.empty()) {
    write_record(opt, reps.size(), tracer.enabled(), hex(digest), correct,
                 attempted, failed, metrics, started);
  }

  // Last line: untraced runs report the end-to-end metrics, traced runs
  // the per-layer ones.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const Metric& m : metrics) {
    if (m.name == "fail_frac" || is_end_to_end(m.name) == tracer.enabled()) {
      continue;
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
}
