#include "harness/report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/expect.hpp"
#include "harness/cli.hpp"

namespace mlid {

void JsonWriter::separator() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

JsonWriter& JsonWriter::begin_object() {
  MLID_EXPECT(stack_.empty() || pending_key_ || stack_.back() == '[',
              "object needs a key inside an object");
  separator();
  pending_key_ = false;
  out_ += '{';
  stack_ += '{';
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  MLID_EXPECT(!stack_.empty() && stack_.back() == '{' && !pending_key_,
              "unbalanced end_object");
  out_ += '}';
  stack_.pop_back();
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  MLID_EXPECT(stack_.empty() || pending_key_ || stack_.back() == '[',
              "array needs a key inside an object");
  separator();
  pending_key_ = false;
  out_ += '[';
  stack_ += '[';
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  MLID_EXPECT(!stack_.empty() && stack_.back() == '[', "unbalanced end_array");
  out_ += ']';
  stack_.pop_back();
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  MLID_EXPECT(!stack_.empty() && stack_.back() == '{' && !pending_key_,
              "key outside an object");
  separator();
  value(name);  // emits the quoted key
  out_ += ':';
  need_comma_ = false;
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  MLID_EXPECT(stack_.empty() || pending_key_ || stack_.back() == '[',
              "value needs a key inside an object");
  separator();
  pending_key_ = false;
  if (std::isfinite(v)) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out_ += buf;
  } else {
    out_ += "null";  // JSON has no NaN/Inf
  }
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  MLID_EXPECT(stack_.empty() || pending_key_ || stack_.back() == '[',
              "value needs a key inside an object");
  separator();
  pending_key_ = false;
  out_ += std::to_string(v);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  MLID_EXPECT(stack_.empty() || pending_key_ || stack_.back() == '[',
              "value needs a key inside an object");
  separator();
  pending_key_ = false;
  out_ += std::to_string(v);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  MLID_EXPECT(stack_.empty() || pending_key_ || stack_.back() == '[',
              "value needs a key inside an object");
  separator();
  pending_key_ = false;
  out_ += v ? "true" : "false";
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  const bool is_key = !pending_key_ && !stack_.empty() &&
                      stack_.back() == '{';
  if (!is_key) {
    MLID_EXPECT(stack_.empty() || pending_key_ || stack_.back() == '[',
                "value needs a key inside an object");
    separator();
  }
  pending_key_ = false;
  out_ += '"';
  for (const char c : v) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
  if (!is_key) need_comma_ = true;
  return *this;
}

namespace {

// Emits a Log2Histogram as a value ({"total": N, "counts": [...]}); the
// counts array is trimmed at the last non-empty bucket (the fixed layout
// means readers can always re-pad to Log2Histogram::kBuckets).
void emit_log2_hist(JsonWriter& json, const Log2Histogram& h) {
  json.begin_object();
  json.key("total").value(h.total());
  json.key("counts").begin_array();
  for (std::size_t i = 0, n = h.trimmed_size(); i < n; ++i) {
    json.value(h.counts()[i]);
  }
  json.end_array();
  json.end_object();
}

void emit_link_summary(JsonWriter& json, const LinkSummary& s) {
  json.begin_object();
  json.key("links").value(s.links);
  json.key("total_packets").value(s.total_packets);
  json.key("total_bytes").value(s.total_bytes);
  json.key("mean_utilization").value(s.mean_utilization);
  json.key("max_utilization").value(s.max_utilization);
  json.key("total_credit_stall_ns").value(s.total_credit_stall_ns);
  json.key("max_credit_stall_ns").value(s.max_credit_stall_ns);
  json.key("max_queue_depth_pkts")
      .value(static_cast<std::uint64_t>(s.max_queue_depth_pkts));
  json.key("total_fecn_marks").value(s.total_fecn_marks);
  json.end_object();
}

// Emits the congestion-control summary object (only written when
// SimConfig::cc was enabled; cc_enabled is emitted unconditionally so
// consumers can branch without probing for the object).
void emit_cc_summary(JsonWriter& json, const CcSummary& cc) {
  json.begin_object();
  json.key("fecn_marked").value(cc.fecn_marked);
  json.key("fecn_depth_marks").value(cc.fecn_depth_marks);
  json.key("fecn_stall_marks").value(cc.fecn_stall_marks);
  json.key("becn_sent").value(cc.becn_sent);
  json.key("becn_received").value(cc.becn_received);
  json.key("cct_timer_fires").value(cc.cct_timer_fires);
  json.key("throttled_pkts").value(cc.throttled_pkts);
  json.key("throttled_ns_total").value(cc.throttled_ns_total);
  json.key("max_node_throttled_ns").value(cc.max_node_throttled_ns);
  json.key("peak_cct_index")
      .value(static_cast<std::uint64_t>(cc.peak_cct_index));
  json.key("cct_index_hist").begin_array();
  for (const std::uint64_t v : cc.cct_index_hist) json.value(v);
  json.end_array();
  json.end_object();
}

// Emits the interval sampler's output in columnar form: a "columns" legend
// plus one fixed-width array per sample.  Kept flat (no per-sample objects)
// because a 512-sample timeline rides along with every SweepPoint.
void emit_timeline(JsonWriter& json, const Timeline& t) {
  static constexpr std::string_view kColumns[] = {
      "t_ns",          "intervals",   "generated",
      "delivered",     "dropped",     "becn",
      "in_flight",     "queued_pkts", "max_queue_depth",
      "stalled_vls",   "cct_active_nodes", "peak_cct_index"};
  json.begin_object();
  json.key("base_interval_ns")
      .value(static_cast<std::int64_t>(t.base_interval_ns));
  json.key("interval_ns").value(static_cast<std::int64_t>(t.interval_ns));
  json.key("max_samples").value(static_cast<std::uint64_t>(t.max_samples));
  json.key("decimations").value(static_cast<std::uint64_t>(t.decimations));
  json.key("columns").begin_array();
  for (const std::string_view col : kColumns) json.value(col);
  json.end_array();
  json.key("samples").begin_array();
  for (const TimelineSample& s : t.samples) {
    json.begin_array();
    json.value(static_cast<std::int64_t>(s.t_ns));
    json.value(static_cast<std::uint64_t>(s.intervals));
    json.value(s.generated);
    json.value(s.delivered);
    json.value(s.dropped);
    json.value(s.becn);
    json.value(s.in_flight);
    json.value(s.queued_pkts);
    json.value(static_cast<std::uint64_t>(s.max_queue_depth));
    json.value(static_cast<std::uint64_t>(s.stalled_vls));
    json.value(static_cast<std::uint64_t>(s.cct_active_nodes));
    json.value(static_cast<std::uint64_t>(s.peak_cct_index));
    json.end_array();
  }
  json.end_array();
  json.end_object();
}

void emit_profile_summary(JsonWriter& json, const ProfileSummary& p);

void emit_sim_result_fields(JsonWriter& json, const SimResult& r) {
  json.key("offered_load").value(r.offered_load);
  json.key("accepted_bytes_per_ns_per_node")
      .value(r.accepted_bytes_per_ns_per_node);
  json.key("avg_latency_ns").value(r.avg_latency_ns);
  json.key("avg_network_latency_ns").value(r.avg_network_latency_ns);
  json.key("p50_latency_ns").value(r.p50_latency_ns);
  json.key("p95_latency_ns").value(r.p95_latency_ns);
  json.key("p99_latency_ns").value(r.p99_latency_ns);
  json.key("max_latency_ns").value(r.max_latency_ns);
  json.key("packets_generated").value(r.packets_generated);
  json.key("packets_delivered").value(r.packets_delivered);
  json.key("packets_measured").value(r.packets_measured);
  json.key("packets_dropped").value(r.packets_dropped);
  json.key("events_processed").value(r.events_processed);
  json.key("events_scheduled").value(r.events_scheduled);
  json.key("avg_hops").value(r.avg_hops);
  json.key("mean_link_utilization").value(r.mean_link_utilization);
  json.key("max_link_utilization").value(r.max_link_utilization);
  json.key("jain_fairness_index").value(r.jain_fairness_index);
  json.key("delivered_per_vl").begin_array();
  for (const std::uint64_t v : r.delivered_per_vl) json.value(v);
  json.end_array();
  json.key("victim_packets").value(r.victim_packets);
  json.key("hot_packets").value(r.hot_packets);
  json.key("victim_avg_latency_ns").value(r.victim_avg_latency_ns);
  json.key("victim_p99_latency_ns").value(r.victim_p99_latency_ns);
  json.key("hot_avg_latency_ns").value(r.hot_avg_latency_ns);
  json.key("hot_p99_latency_ns").value(r.hot_p99_latency_ns);
  // v7: per-tenant isolation metrics, present only when the multi-tenant
  // subsystem ran (SimConfig::tenants.count > 0); tenant_count is emitted
  // unconditionally so consumers can branch without probing.
  json.key("tenant_count").value(static_cast<std::uint64_t>(r.tenants.size()));
  if (!r.tenants.empty()) {
    json.key("tenant_jain_fairness_index").value(r.tenant_jain_fairness_index);
    json.key("tenants").begin_array();
    for (const TenantStats& t : r.tenants) {
      json.begin_object();
      json.key("delivered_pkts").value(t.delivered_pkts);
      json.key("accepted_bytes_per_ns").value(t.accepted_bytes_per_ns);
      json.key("avg_latency_ns").value(t.avg_latency_ns);
      json.end_object();
    }
    json.end_array();
  }
  json.key("cc_enabled").value(r.cc.enabled);
  if (r.cc.enabled) {
    json.key("cc");
    emit_cc_summary(json, r.cc);
  }
  json.key("telemetry").value(r.telemetry);
  if (r.telemetry) {
    json.key("latency_log2_hist");
    emit_log2_hist(json, r.latency_log2_hist);
    json.key("queue_log2_hist");
    emit_log2_hist(json, r.queue_log2_hist);
    json.key("network_log2_hist");
    emit_log2_hist(json, r.network_log2_hist);
    json.key("latency_log2_per_vl").begin_array();
    for (const Log2Histogram& h : r.latency_log2_per_vl) {
      emit_log2_hist(json, h);
    }
    json.end_array();
    json.key("link_summary");
    emit_link_summary(json, r.link_summary);
  }
  json.key("timeline_enabled").value(r.timeline.enabled());
  if (r.timeline.enabled()) {
    json.key("timeline");
    emit_timeline(json, r.timeline);
  }
  // v8: engine self-profile, presence-flagged like the other optional
  // blocks.  Wall times are host measurements, so byte-comparisons of this
  // JSON must scrub the block first (see sim/metrics.hpp).
  json.key("profile_enabled").value(r.profile.enabled);
  if (r.profile.enabled) {
    json.key("profile");
    emit_profile_summary(json, r.profile);
  }
}

// v8: engine self-profile block (obs/profile.hpp).  Emitted with a
// presence flag in sim results and unconditionally in point manifests, so
// BENCH consumers can rely on every manifest having the same shape; an
// unprofiled run carries enabled == false and all-zero phase totals.
void emit_profile_summary(JsonWriter& json, const ProfileSummary& p) {
  json.begin_object();
  json.key("enabled").value(p.enabled);
  json.key("shards").value(static_cast<std::uint64_t>(p.shards));
  json.key("threads").value(static_cast<std::uint64_t>(p.threads));
  json.key("windows").value(p.windows);
  json.key("control_steps").value(p.control_steps);
  json.key("handoff_messages").value(p.handoff_messages);
  json.key("window_ns_min").value(static_cast<std::int64_t>(p.window_ns_min));
  json.key("window_ns_max").value(static_cast<std::int64_t>(p.window_ns_max));
  json.key("window_ns_mean").value(p.window_ns_mean);
  json.key("total_wall_ns").value(p.total_wall_ns);
  json.key("processing_ns").value(p.processing_ns);
  json.key("barrier_wait_ns").value(p.barrier_wait_ns);
  json.key("mailbox_ns").value(p.mailbox_ns);
  json.key("control_ns").value(p.control_ns);
  json.key("barrier_wait_fraction").value(p.barrier_wait_fraction());
  json.key("max_imbalance").value(p.max_imbalance);
  json.key("mean_imbalance").value(p.mean_imbalance);
  json.key("queue_pushes").value(p.queue_pushes);
  json.key("queue_pops").value(p.queue_pops);
  json.key("queue_overflow_pushes").value(p.queue_overflow_pushes);
  json.key("queue_side_pushes").value(p.queue_side_pushes);
  json.key("shard_phases").begin_array();
  for (const ShardPhaseProfile& s : p.shard_phases) {
    json.begin_object();
    json.key("processing_ns").value(s.processing_ns);
    json.key("barrier_wait_ns").value(s.barrier_wait_ns);
    json.key("events_processed").value(s.events_processed);
    json.key("handoffs_out").value(s.handoffs_out);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void emit_queue_stats(JsonWriter& json, const EventQueueStats& q) {
  json.begin_object();
  json.key("buckets").value(static_cast<std::uint64_t>(q.buckets));
  json.key("bucket_width_ns")
      .value(static_cast<std::int64_t>(q.bucket_width_ns));
  json.key("side_pushes").value(q.side_pushes);
  json.key("overflow_pushes").value(q.overflow_pushes);
  json.key("max_overflow_depth").value(q.max_overflow_depth);
  json.key("max_bucket_events").value(q.max_bucket_events);
  json.end_object();
}

void emit_point_manifest(JsonWriter& json, const PointManifest& m) {
  json.begin_object();
  json.key("sim_seed").value(m.sim_seed);
  json.key("traffic_seed").value(m.traffic_seed);
  json.key("wall_seconds").value(m.wall_seconds);
  json.key("events_processed").value(m.events_processed);
  json.key("events_scheduled").value(m.events_scheduled);
  json.key("events_per_sec").value(m.events_per_sec);
  json.key("threads").value(static_cast<std::uint64_t>(m.threads));
  json.key("shards").value(static_cast<std::uint64_t>(m.shards));
  json.key("bytes_per_endport").value(m.bytes_per_endport);
  json.key("policy").value(m.policy);
  json.key("vl_map").value(m.vl_map);
  json.key("scenario").value(m.scenario);
  json.key("event_queue");
  emit_queue_stats(json, m.queue);
  // v8: every manifest carries the profile block (enabled == false when the
  // point ran without SimConfig::profile), so consumers need no probing.
  json.key("profile");
  emit_profile_summary(json, m.profile);
  json.end_object();
}

void emit_burst_result_fields(JsonWriter& json, const BurstResult& r) {
  json.key("makespan_ns").value(static_cast<std::int64_t>(r.makespan_ns));
  json.key("avg_message_latency_ns").value(r.avg_message_latency_ns);
  json.key("max_message_latency_ns").value(r.max_message_latency_ns);
  json.key("messages").value(r.messages);
  json.key("packets").value(r.packets);
  json.key("total_bytes").value(r.total_bytes);
  json.key("events_processed").value(r.events_processed);
  json.key("events_scheduled").value(r.events_scheduled);
  json.key("aggregate_bytes_per_ns").value(r.aggregate_bytes_per_ns());
  json.key("cc_enabled").value(r.cc.enabled);
  if (r.cc.enabled) {
    json.key("cc");
    emit_cc_summary(json, r.cc);
  }
  json.key("telemetry").value(r.telemetry);
  if (r.telemetry) {
    json.key("p50_message_latency_ns").value(r.p50_message_latency_ns);
    json.key("p95_message_latency_ns").value(r.p95_message_latency_ns);
    json.key("p99_message_latency_ns").value(r.p99_message_latency_ns);
    json.key("message_latency_hist");
    emit_log2_hist(json, r.message_latency_hist);
    json.key("link_summary");
    emit_link_summary(json, r.link_summary);
  }
}

void emit_figure(JsonWriter& json, const FigureSpec& spec,
                 const std::vector<SweepPoint>& points) {
  json.begin_object();
  json.key("title").value(spec.title);
  json.key("m").value(spec.m);
  json.key("n").value(spec.n);
  json.key("traffic").value(to_string(spec.traffic.kind));
  json.key("points").begin_array();
  for (const SweepPoint& point : points) {
    json.begin_object();
    json.key("scheme").value(point.scheme);
    json.key("vls").value(point.vls);
    json.key("load").value(point.load);
    emit_sim_result_fields(json, point.result);
    json.key("manifest");
    emit_point_manifest(json, point.manifest);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace

std::string to_json(const SimResult& result) {
  JsonWriter json;
  json.begin_object();
  emit_sim_result_fields(json, result);
  json.end_object();
  return json.str();
}

std::string to_json(const BurstResult& result) {
  JsonWriter json;
  json.begin_object();
  emit_burst_result_fields(json, result);
  json.end_object();
  return json.str();
}

std::string to_json(const FigureSpec& spec,
                    const std::vector<SweepPoint>& points) {
  JsonWriter json;
  emit_figure(json, spec, points);
  return json.str();
}

std::string git_describe() {
#ifdef MLID_GIT_DESCRIBE
  return MLID_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

std::string bench_name_from_path(std::string_view argv0) {
  const auto slash = argv0.find_last_of("/\\");
  if (slash != std::string_view::npos) argv0.remove_prefix(slash + 1);
  return std::string(argv0);
}

BenchReport::BenchReport(std::string name, std::uint64_t seed,
                         unsigned threads, bool quick)
    : name_(std::move(name)),
      seed_(seed),
      threads_(threads),
      quick_(quick),
      started_(std::chrono::steady_clock::now()) {
  MLID_EXPECT(!name_.empty(), "bench report needs a name");
}

BenchReport::BenchReport(std::string name, const CliOptions& opts)
    : BenchReport(std::move(name), opts.seed(), opts.threads(),
                  opts.quick()) {}

void BenchReport::add(std::string_view series, const SimResult& result) {
  results_.push_back(SimEntry{std::string(series), result, std::nullopt});
}

void BenchReport::add(std::string_view series, const SimResult& result,
                      const PointManifest& manifest) {
  results_.push_back(SimEntry{std::string(series), result, manifest});
}

void BenchReport::add(std::string_view series, const BurstResult& result) {
  bursts_.push_back(BurstEntry{std::string(series), result, std::nullopt});
}

void BenchReport::add(std::string_view series, const BurstResult& result,
                      const PointManifest& manifest) {
  bursts_.push_back(BurstEntry{std::string(series), result, manifest});
}

void BenchReport::add_figure(const FigureSpec& spec,
                             const std::vector<SweepPoint>& points) {
  figures_.push_back(FigureEntry{spec, points});
}

std::string BenchReport::file_name() const {
  return "BENCH_" + name_ + ".json";
}

std::string BenchReport::to_json() const {
  std::uint64_t events = 0;
  for (const SimEntry& e : results_) events += e.result.events_processed;
  for (const BurstEntry& e : bursts_) events += e.result.events_processed;
  for (const FigureEntry& f : figures_) {
    for (const SweepPoint& p : f.points) events += p.result.events_processed;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();

  JsonWriter json;
  json.begin_object();
  // v10: the ladder ring no longer grows -- "event_queue" replaces
  // "resizes" with "side_pushes" (pushes into an epoch already draining),
  // and the profile's "queue_resizes" becomes "queue_side_pushes".
  // v9: one event queue -- the manifest's "event_queue" block loses its
  // "kind" key, and the default VL map is named "random" (was "none").
  // v8: engine self-profile -- every point manifest carries a "profile"
  // block (phase breakdown, barrier-wait fraction, imbalance; enabled ==
  // false with zero totals when the point ran unprofiled) and sim results
  // gain "profile_enabled" plus a conditional "profile" object.
  // v7 added scenario provenance per manifest and the per-tenant isolation
  // block; v6 added the forwarding/VL-map policy pair ("policy", "vl_map")
  // per point manifest and registry scheme names in figure points; v5 added
  // bytes_per_endport (engine hot state + compiled routing tables over
  // total fabric ports), the scale metric CI regresses on; v4 added the
  // actual parallelism (worker threads + engine shards) per point.
  json.key("schema").value("mlid-bench-v10");
  json.key("name").value(name_);
  json.key("manifest").begin_object();
  json.key("git").value(git_describe());
  json.key("seed").value(seed_);
  json.key("threads").value(static_cast<std::uint64_t>(threads_));
  json.key("quick").value(quick_);
  json.key("wall_seconds").value(wall);
  json.key("events_processed").value(events);
  json.key("events_per_sec")
      .value(wall > 0.0 ? static_cast<double>(events) / wall : 0.0);
  json.end_object();
  json.key("results").begin_array();
  for (const SimEntry& e : results_) {
    json.begin_object();
    json.key("series").value(e.series);
    emit_sim_result_fields(json, e.result);
    if (e.manifest) {
      json.key("manifest");
      emit_point_manifest(json, *e.manifest);
    }
    json.end_object();
  }
  json.end_array();
  json.key("bursts").begin_array();
  for (const BurstEntry& e : bursts_) {
    json.begin_object();
    json.key("series").value(e.series);
    emit_burst_result_fields(json, e.result);
    if (e.manifest) {
      json.key("manifest");
      emit_point_manifest(json, *e.manifest);
    }
    json.end_object();
  }
  json.end_array();
  json.key("figures").begin_array();
  for (const FigureEntry& f : figures_) emit_figure(json, f.spec, f.points);
  json.end_array();
  json.end_object();
  return json.str();
}

std::string BenchReport::write(const std::string& dir) const {
  const std::string path =
      dir.empty() || dir == "." ? file_name() : dir + "/" + file_name();
  std::ofstream out(path, std::ios::trunc);
  MLID_EXPECT(out.good(), "cannot open bench report file for writing");
  out << to_json() << "\n";
  MLID_EXPECT(out.good(), "bench report write failed");
  return path;
}

}  // namespace mlid
