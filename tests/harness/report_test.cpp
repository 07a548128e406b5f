#include "harness/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace mlid {
namespace {

TEST(JsonWriter, FlatObject) {
  JsonWriter json;
  json.begin_object();
  json.key("a").value(std::uint64_t{1});
  json.key("b").value(2.5);
  json.key("c").value(true);
  json.key("d").value("text");
  json.end_object();
  EXPECT_EQ(json.str(), R"({"a":1,"b":2.5,"c":true,"d":"text"})");
}

TEST(JsonWriter, NestedArrays) {
  JsonWriter json;
  json.begin_object();
  json.key("xs").begin_array();
  json.value(std::uint64_t{1});
  json.value(std::uint64_t{2});
  json.begin_object();
  json.key("y").value(std::int64_t{-3});
  json.end_object();
  json.end_array();
  json.end_object();
  EXPECT_EQ(json.str(), R"({"xs":[1,2,{"y":-3}]})");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter json;
  json.begin_object();
  json.key("s").value("a\"b\\c\nd");
  json.end_object();
  EXPECT_EQ(json.str(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  JsonWriter json;
  json.begin_array();
  json.value(std::nan(""));
  json.end_array();
  EXPECT_EQ(json.str(), "[null]");
}

TEST(JsonWriter, MisuseIsRejected) {
  {
    JsonWriter json;
    json.begin_object();
    EXPECT_THROW(json.value(1.0), ContractViolation);  // value without key
  }
  {
    JsonWriter json;
    json.begin_array();
    EXPECT_THROW(json.end_object(), ContractViolation);  // mismatched close
  }
  {
    JsonWriter json;
    EXPECT_THROW(json.key("k"), ContractViolation);  // key at top level
  }
}

TEST(Report, SimResultRoundTripsTheHeadlineFields) {
  SimResult r;
  r.offered_load = 0.5;
  r.accepted_bytes_per_ns_per_node = 0.25;
  r.avg_latency_ns = 123.5;
  r.packets_measured = 42;
  r.delivered_per_vl = {40, 2};
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"offered_load\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"packets_measured\":42"), std::string::npos);
  EXPECT_NE(json.find("\"delivered_per_vl\":[40,2]"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Report, BurstResultSerializes) {
  BurstResult r;
  r.makespan_ns = 1824;
  r.messages = 3;
  r.total_bytes = 999;
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"makespan_ns\":1824"), std::string::npos);
  EXPECT_NE(json.find("\"aggregate_bytes_per_ns\""), std::string::npos);
}

TEST(Report, FigureSweepSerializesEveryPoint) {
  FigureSpec spec;
  spec.title = "json test";
  spec.m = 4;
  spec.n = 2;
  spec.traffic = {TrafficKind::kUniform, 0.2, 0, 3};
  spec.sim.warmup_ns = 3'000;
  spec.sim.measure_ns = 10'000;
  spec.vl_counts = {1};
  spec.loads = {0.2, 0.5};
  const auto points = run_sweep(spec, {.threads = 1});
  const std::string json = to_json(spec, points);
  EXPECT_NE(json.find("\"title\":\"json test\""), std::string::npos);
  EXPECT_NE(json.find("\"traffic\":\"uniform\""), std::string::npos);
  // One "scheme" entry per point.
  std::size_t count = 0;
  for (std::size_t pos = json.find("\"scheme\""); pos != std::string::npos;
       pos = json.find("\"scheme\"", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, points.size());
}

TEST(Report, TelemetryFieldsSerializeWhenPresent) {
  SimResult r;
  r.telemetry = true;
  r.latency_log2_hist.add(100.0);
  r.latency_log2_per_vl.assign(2, Log2Histogram{});
  r.latency_log2_per_vl[0].add(100.0);
  r.link_summary.links = 3;
  r.link_summary.max_queue_depth_pkts = 5;
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"telemetry\":true"), std::string::npos);
  EXPECT_NE(json.find("\"latency_log2_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"link_summary\""), std::string::npos);
  EXPECT_NE(json.find("\"max_queue_depth_pkts\":5"), std::string::npos);

  SimResult off;
  const std::string json_off = to_json(off);
  EXPECT_NE(json_off.find("\"telemetry\":false"), std::string::npos);
  EXPECT_EQ(json_off.find("\"latency_log2_hist\""), std::string::npos);
}

TEST(Report, CcFieldsSerializePerTheV2Schema) {
  // cc_enabled and the victim/hot split are always present; the cc block
  // only when congestion control ran.
  SimResult off;
  const std::string json_off = to_json(off);
  EXPECT_NE(json_off.find("\"cc_enabled\":false"), std::string::npos);
  EXPECT_NE(json_off.find("\"victim_packets\":0"), std::string::npos);
  EXPECT_NE(json_off.find("\"hot_packets\":0"), std::string::npos);
  EXPECT_EQ(json_off.find("\"cc\":{"), std::string::npos);

  SimResult on;
  on.cc.enabled = true;
  on.cc.fecn_depth_marks = 3;
  on.cc.fecn_stall_marks = 4;
  on.cc.fecn_marked = 7;
  on.cc.becn_sent = 6;
  on.cc.becn_received = 5;
  on.cc.cct_timer_fires = 2;
  on.cc.throttled_pkts = 4;
  on.cc.throttled_ns_total = 900;
  on.cc.max_node_throttled_ns = 500;
  on.cc.peak_cct_index = 8;
  on.cc.cct_index_hist = {1, 4};
  on.victim_packets = 11;
  on.victim_p99_latency_ns = 125.5;
  on.telemetry = true;
  on.link_summary.total_fecn_marks = 7;
  const std::string json = to_json(on);
  EXPECT_NE(json.find("\"cc_enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"fecn_marked\":7"), std::string::npos);
  EXPECT_NE(json.find("\"fecn_depth_marks\":3"), std::string::npos);
  EXPECT_NE(json.find("\"fecn_stall_marks\":4"), std::string::npos);
  EXPECT_NE(json.find("\"becn_sent\":6"), std::string::npos);
  EXPECT_NE(json.find("\"becn_received\":5"), std::string::npos);
  EXPECT_NE(json.find("\"cct_timer_fires\":2"), std::string::npos);
  EXPECT_NE(json.find("\"throttled_pkts\":4"), std::string::npos);
  EXPECT_NE(json.find("\"throttled_ns_total\":900"), std::string::npos);
  EXPECT_NE(json.find("\"max_node_throttled_ns\":500"), std::string::npos);
  EXPECT_NE(json.find("\"peak_cct_index\":8"), std::string::npos);
  EXPECT_NE(json.find("\"cct_index_hist\":[1,4]"), std::string::npos);
  EXPECT_NE(json.find("\"victim_packets\":11"), std::string::npos);
  EXPECT_NE(json.find("\"victim_p99_latency_ns\":125.5"), std::string::npos);
  EXPECT_NE(json.find("\"total_fecn_marks\":7"), std::string::npos);
}

TEST(Report, BenchReportEmitsTheSchema) {
  BenchReport report("unit_bench", /*seed=*/9, /*threads=*/2, /*quick=*/true);
  SimResult r;
  r.packets_measured = 10;
  r.events_processed = 1000;
  report.add("series-a", r);
  BurstResult b;
  b.makespan_ns = 5;
  b.events_processed = 50;
  report.add("burst-b", b);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\":\"mlid-bench-v10\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"unit_bench\""), std::string::npos);
  EXPECT_NE(json.find("\"git\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":9"), std::string::npos);
  EXPECT_NE(json.find("\"threads\":2"), std::string::npos);
  EXPECT_NE(json.find("\"quick\":true"), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  // Host cost aggregates across every recorded entry.
  EXPECT_NE(json.find("\"events_processed\":1050"), std::string::npos);
  EXPECT_NE(json.find("\"series\":\"series-a\""), std::string::npos);
  EXPECT_NE(json.find("\"series\":\"burst-b\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Report, PointManifestEmitsParallelism) {
  // v4: every point manifest records the actual parallelism that computed
  // the point, so a BENCH file read in isolation says how it was made.
  // v5 adds bytes_per_endport, the scale metric CI regresses on.
  PointManifest m;
  m.sim_seed = 7;
  m.threads = 8;
  m.shards = 4;
  m.bytes_per_endport = 612.5;
  BenchReport report("manifest_bench", 1, 8, true);
  report.add("pt", SimResult{}, m);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"sim_seed\":7"), std::string::npos);
  EXPECT_NE(json.find("\"threads\":8"), std::string::npos);
  EXPECT_NE(json.find("\"shards\":4"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_per_endport\":612.5"), std::string::npos);
}

TEST(Report, V7ScenarioProvenanceAndTenantBlock) {
  // v7: every manifest names its scenario ("none" for plain sweeps), burst
  // entries may carry manifests too, and per-tenant metrics serialize when
  // the tenant subsystem is on.
  PointManifest m;
  m.scenario = "incast";
  SimResult r;
  r.tenants.resize(2);
  r.tenants[0].delivered_pkts = 3;
  r.tenants[1].delivered_pkts = 4;
  r.tenant_jain_fairness_index = 0.75;
  BenchReport report("v7_bench", 1, 1, true);
  report.add("pt", r, m);
  BurstResult b;
  b.messages = 2;
  report.add("bt", b, m);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"scenario\":\"incast\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant_count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"tenant_jain_fairness_index\":0.75"),
            std::string::npos);
  EXPECT_NE(json.find("\"tenants\":[{\"delivered_pkts\":3"),
            std::string::npos);
  // Both entries carry the manifest; a manifest-free point says "none".
  EXPECT_EQ(json.find("\"scenario\":\"incast\"") !=
                json.rfind("\"scenario\":\"incast\""),
            true);
  BenchReport plain("plain_bench", 1, 1, true);
  plain.add("p", SimResult{}, PointManifest{});
  EXPECT_NE(plain.to_json().find("\"scenario\":\"none\""), std::string::npos);
}

TEST(Report, V9OneQueueAndRandomVlMap) {
  // v9: the manifest's event_queue block has no "kind" (there is one
  // queue), and the default VL map is named "random".
  BenchReport plain("v9_bench", 1, 1, true);
  plain.add("p", SimResult{}, PointManifest{});
  const std::string json = plain.to_json();
  EXPECT_NE(json.find("\"event_queue\":{\"buckets\""), std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"kind\""), std::string::npos);
  EXPECT_NE(json.find("\"vl_map\":\"random\""), std::string::npos);
}

TEST(Report, V8ProfileBlockInResultsAndManifests) {
  // v8: sim results carry a presence-flagged profile block; every point
  // manifest carries one unconditionally (enabled == false, all zeros for
  // unprofiled points), so BENCH consumers never probe for its shape.
  PointManifest m;
  m.profile.enabled = true;
  m.profile.shards = 4;
  m.profile.processing_ns = 3'000;
  m.profile.barrier_wait_ns = 1'000;
  m.profile.shard_phases.resize(4);
  m.profile.shard_phases[0].events_processed = 42;
  SimResult r;
  r.profile = m.profile;
  BenchReport report("v8_bench", 1, 1, true);
  report.add("pt", r, m);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"profile_enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"barrier_wait_fraction\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"shard_phases\":[{\"processing_ns\":0,"
                      "\"barrier_wait_ns\":0,\"events_processed\":42,"
                      "\"handoffs_out\":0}"),
            std::string::npos);
  // Unprofiled: the result skips the block (flag false), the manifest
  // still carries a disabled one.
  BenchReport plain("v8_plain", 1, 1, true);
  plain.add("p", SimResult{}, PointManifest{});
  const std::string plain_json = plain.to_json();
  EXPECT_NE(plain_json.find("\"profile_enabled\":false"), std::string::npos);
  EXPECT_NE(plain_json.find("\"profile\":{\"enabled\":false"),
            std::string::npos);
}

TEST(Report, BenchReportWritesItsFile) {
  BenchReport report("write_test", 1, 1, false);
  report.add("s", SimResult{});
  const std::string path = report.write(::testing::TempDir());
  EXPECT_NE(path.find("BENCH_write_test.json"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  // wall_seconds advances between serializations, so compare structure,
  // not the exact bytes.
  EXPECT_NE(buf.str().find("\"schema\":\"mlid-bench-v10\""), std::string::npos);
  EXPECT_NE(buf.str().find("\"name\":\"write_test\""), std::string::npos);
  EXPECT_EQ(buf.str().back(), '\n');
  std::remove(path.c_str());
}

TEST(Report, BenchNameFromPathStripsDirectories) {
  EXPECT_EQ(bench_name_from_path("/a/b/fig12_uniform"), "fig12_uniform");
  EXPECT_EQ(bench_name_from_path("bench\\table1"), "table1");
  EXPECT_EQ(bench_name_from_path("plain"), "plain");
  EXPECT_FALSE(git_describe().empty());
}

}  // namespace
}  // namespace mlid
