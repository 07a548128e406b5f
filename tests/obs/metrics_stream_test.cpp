// JSONL metrics stream: golden-line schema checks for every line kind, plus
// the flush-cadence boundary cases (a run shorter than one interval, the
// final partial window, an end time exactly on a window boundary).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/stream.hpp"
#include "parallel/sharded.hpp"
#include "sim/engine.hpp"

namespace mlid {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Every line must be one self-contained flat JSON object ending in the
// streamer-stamped wall_ns.  A full parser is overkill; the structural
// invariants below are what downstream `json.loads` relies on.
void expect_jsonl_shape(const std::string& line) {
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"kind\":\""), std::string::npos) << line;
  EXPECT_NE(line.find(",\"wall_ns\":"), std::string::npos) << line;
  // Flat object: no nested braces except the optional profile block.
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(MetricsStream, RejectsBadConstruction) {
  EXPECT_THROW(MetricsStreamer("/nonexistent-dir/m.jsonl", 1'000),
               std::runtime_error);
  EXPECT_THROW(MetricsStreamer(temp_path("zero.jsonl"), 0),
               std::runtime_error);
  EXPECT_THROW(MetricsStreamer(temp_path("neg.jsonl"), -5),
               std::runtime_error);
}

TEST(MetricsStream, GoldenLineSchemas) {
  const std::string path = temp_path("golden.jsonl");
  {
    MetricsStreamer stream(path, 1'000);
    MetricsWindow w;
    w.t_ns = 1'000;
    w.window_ns = 1'000;
    w.partial = false;
    w.shards = 2;
    w.generated = 10;
    w.delivered = 8;
    w.dropped = 1;
    w.becn = 0;
    w.in_flight = 2;
    w.events_processed = 123;
    stream.window(w);

    ProfileSummary prof;
    prof.enabled = true;
    prof.shards = 2;
    prof.threads = 2;
    prof.processing_ns = 3'000;
    prof.barrier_wait_ns = 1'000;
    MetricsRunSummary s;
    s.end_ns = 25'000;
    s.shards = 2;
    s.threads = 2;
    s.generated = 10;
    s.delivered = 8;
    s.dropped = 1;
    s.events_processed = 123;
    s.profile = &prof;
    stream.run_summary(s);

    MetricsPoint pt;
    pt.series = "MLID 4VL \"quoted\"";
    pt.load = 0.5;
    pt.wall_seconds = 0.25;
    pt.events_processed = 123;
    pt.events_per_sec = 492.0;
    pt.completed = 1;
    pt.total = 9;
    stream.point(pt);
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) expect_jsonl_shape(line);

  // Golden prefixes: key order is part of the schema (only the trailing
  // wall_ns value varies run to run).
  EXPECT_EQ(lines[0].substr(0, lines[0].find(",\"wall_ns\":")),
            "{\"kind\":\"window\",\"t_ns\":1000,\"window_ns\":1000,"
            "\"partial\":false,\"shards\":2,\"generated\":10,\"delivered\":8,"
            "\"dropped\":1,\"becn\":0,\"in_flight\":2,"
            "\"events_processed\":123");
  EXPECT_EQ(lines[1].substr(0, lines[1].find(",\"wall_ns\":")),
            "{\"kind\":\"summary\",\"end_ns\":25000,\"shards\":2,"
            "\"threads\":2,\"generated\":10,\"delivered\":8,\"dropped\":1,"
            "\"events_processed\":123,\"profile\":{\"shards\":2,"
            "\"threads\":2,\"windows\":0,\"control_steps\":0,"
            "\"handoff_messages\":0,\"total_wall_ns\":0,"
            "\"processing_ns\":3000,\"barrier_wait_ns\":1000,"
            "\"mailbox_ns\":0,\"control_ns\":0,"
            "\"barrier_wait_fraction\":0.25,\"max_imbalance\":0,"
            "\"mean_imbalance\":0}");
  // String escaping in the series label.
  EXPECT_NE(lines[2].find("\"series\":\"MLID 4VL \\\"quoted\\\"\""),
            std::string::npos);
  // Summary without a profile pointer omits the block entirely.
  const std::string path2 = temp_path("noprof.jsonl");
  {
    MetricsStreamer stream(path2, 1'000);
    stream.run_summary(MetricsRunSummary{});
  }
  EXPECT_EQ(read_lines(path2)[0].find("\"profile\""), std::string::npos);
}

SimConfig quick_cfg() {
  SimConfig cfg;
  cfg.warmup_ns = 5'000;
  cfg.measure_ns = 20'000;
  cfg.seed = 7;
  return cfg;
}

std::size_t count_kind(const std::vector<std::string>& lines,
                       std::string_view kind) {
  const std::string tag = "{\"kind\":\"" + std::string(kind) + "\"";
  std::size_t n = 0;
  for (const std::string& l : lines) {
    if (l.rfind(tag, 0) == 0) ++n;
  }
  return n;
}

TEST(MetricsStream, SequentialWindowCadence) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const SimConfig cfg = quick_cfg();  // end = 25'000 ns
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 11};

  // Interval divides the end time exactly: full windows only, the last one
  // landing on end, so no partial line.
  const std::string exact = temp_path("seq_exact.jsonl");
  {
    MetricsStreamer stream(exact, 5'000);
    OpenLoopOptions options;
    options.metrics = &stream;
    Simulation::open_loop(subnet, cfg, traffic, 0.4, options).run();
  }
  std::vector<std::string> lines = read_lines(exact);
  for (const std::string& l : lines) expect_jsonl_shape(l);
  EXPECT_EQ(count_kind(lines, "window"), 5u);  // 5000..25000
  EXPECT_EQ(count_kind(lines, "summary"), 1u);
  EXPECT_EQ(lines.back().rfind("{\"kind\":\"summary\"", 0), 0u);
  for (const std::string& l : lines) {
    EXPECT_EQ(l.find("\"partial\":true"), std::string::npos) << l;
  }

  // Interval that does NOT divide the end time: the tail shows up as one
  // short window flagged partial, with the remainder width.
  const std::string ragged = temp_path("seq_ragged.jsonl");
  {
    MetricsStreamer stream(ragged, 7'000);
    OpenLoopOptions options;
    options.metrics = &stream;
    Simulation::open_loop(subnet, cfg, traffic, 0.4, options).run();
  }
  lines = read_lines(ragged);
  EXPECT_EQ(count_kind(lines, "window"), 4u);  // 7000,14000,21000 + partial
  ASSERT_GE(lines.size(), 2u);
  const std::string& last_window = lines[lines.size() - 2];
  EXPECT_NE(last_window.find("\"partial\":true"), std::string::npos);
  EXPECT_NE(last_window.find("\"t_ns\":25000,\"window_ns\":4000"),
            std::string::npos);

  // Run shorter than one interval: zero full windows, one partial covering
  // the whole run, then the summary.
  const std::string shorter = temp_path("seq_short.jsonl");
  {
    MetricsStreamer stream(shorter, 1'000'000);
    OpenLoopOptions options;
    options.metrics = &stream;
    Simulation::open_loop(subnet, cfg, traffic, 0.4, options).run();
  }
  lines = read_lines(shorter);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"partial\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"t_ns\":25000,\"window_ns\":25000"),
            std::string::npos);
  EXPECT_EQ(count_kind(lines, "summary"), 1u);
}

TEST(MetricsStream, ShardedStreamMatchesCountersAndCadence) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const SimConfig cfg = quick_cfg();
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 11};

  for (const std::uint32_t shards : {2u, 4u}) {
    const std::string path =
        temp_path("sharded_" + std::to_string(shards) + ".jsonl");
    SimResult result;
    {
      MetricsStreamer stream(path, 7'000);
      OpenLoopOptions options;
      options.metrics = &stream;
      ShardedSimulation sim = ShardedSimulation::open_loop(
          subnet, cfg, traffic, 0.4, {shards, 0}, options);
      result = sim.run();
    }
    const std::vector<std::string> lines = read_lines(path);
    for (const std::string& l : lines) expect_jsonl_shape(l);
    EXPECT_EQ(count_kind(lines, "window"), 4u);
    EXPECT_EQ(count_kind(lines, "summary"), 1u);
    // Window deltas must sum to the run totals: the final partial window is
    // emitted before the shard merge, so nothing is double-counted.
    std::uint64_t generated = 0;
    for (const std::string& l : lines) {
      if (l.rfind("{\"kind\":\"window\"", 0) != 0) continue;
      const auto pos = l.find("\"generated\":");
      ASSERT_NE(pos, std::string::npos);
      generated += std::stoull(l.substr(pos + 12));
    }
    EXPECT_EQ(generated, result.packets_generated);
    // The summary line reports fleet totals.
    std::ostringstream want;
    want << "\"shards\":" << shards;
    EXPECT_NE(lines.back().find(want.str()), std::string::npos);
  }
}

}  // namespace
}  // namespace mlid
