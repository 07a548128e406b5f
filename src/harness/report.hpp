// Machine-readable result export: hand-rolled JSON emission (no external
// dependencies) for SimResult, BurstResult and whole figure sweeps, so
// downstream tooling can plot without scraping the console tables.
#pragma once

#include <chrono>
#include <optional>
#include <string>

#include "harness/sweep.hpp"

namespace mlid {

class CliOptions;

/// Minimal JSON value builder sufficient for flat result records: objects,
/// arrays, numbers, strings, booleans.  Output is deterministic (insertion
/// order preserved) and ASCII-escaped.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Starts a keyed value inside an object.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  /// Prevents string literals from binding to the bool overload.
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }

  [[nodiscard]] std::string str() const { return out_; }

 private:
  void separator();

  std::string out_;
  std::string stack_;      // '{' or '[' per nesting level
  bool need_comma_ = false;
  bool pending_key_ = false;
};

/// One simulation result as a JSON object.
std::string to_json(const SimResult& result);

/// One burst result as a JSON object.
std::string to_json(const BurstResult& result);

/// A whole figure sweep: {"title": ..., "points": [...]} with the series
/// key (scheme, vls, load) and its reproducibility manifest embedded in
/// every point.
std::string to_json(const FigureSpec& spec,
                    const std::vector<SweepPoint>& points);

/// The build's `git describe` string, baked in at configure time
/// (MLID_GIT_DESCRIBE); "unknown" when the build did not come from a
/// checkout.
[[nodiscard]] std::string git_describe();

/// Bench name from its argv[0]: the basename, directories stripped.
[[nodiscard]] std::string bench_name_from_path(std::string_view argv0);

/// Collects everything one bench binary produced -- standalone results,
/// burst results, whole figure sweeps -- and writes them as a single
/// `BENCH_<name>.json` (schema "mlid-bench-v10") whose manifest records the
/// configuration (seed, threads, quick), the build (git describe) and the
/// host cost (wall seconds, events processed, events/sec).  Every bench
/// executable emits one of these so runs are diffable across machines and
/// commits.
class BenchReport {
 public:
  BenchReport(std::string name, std::uint64_t seed, unsigned threads,
              bool quick);
  /// Convenience: pull seed / threads / quick from parsed CLI flags.
  BenchReport(std::string name, const CliOptions& opts);

  void add(std::string_view series, const SimResult& result);
  /// Standalone result plus its reproducibility/host-cost manifest -- lets
  /// a bench attach per-series wall time, events/sec and event-queue
  /// internals (e.g. to compare queue kinds within one report).
  void add(std::string_view series, const SimResult& result,
           const PointManifest& manifest);
  void add(std::string_view series, const BurstResult& result);
  /// Burst result plus its manifest (scenario arms on the closed-loop path
  /// carry the same provenance record as open-loop points).
  void add(std::string_view series, const BurstResult& result,
           const PointManifest& manifest);
  void add_figure(const FigureSpec& spec,
                  const std::vector<SweepPoint>& points);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::string file_name() const;  ///< "BENCH_<name>.json"
  [[nodiscard]] std::string to_json() const;
  /// Writes file_name() under `dir`; returns the path written.
  std::string write(const std::string& dir = ".") const;

 private:
  struct SimEntry {
    std::string series;
    SimResult result;
    std::optional<PointManifest> manifest;
  };
  struct BurstEntry {
    std::string series;
    BurstResult result;
    std::optional<PointManifest> manifest;
  };
  struct FigureEntry {
    FigureSpec spec;
    std::vector<SweepPoint> points;
  };

  std::string name_;
  std::uint64_t seed_;
  unsigned threads_;
  bool quick_;
  std::chrono::steady_clock::time_point started_;
  std::vector<SimEntry> results_;
  std::vector<BurstEntry> bursts_;
  std::vector<FigureEntry> figures_;
};

}  // namespace mlid
