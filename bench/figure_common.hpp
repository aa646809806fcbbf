// Shared sweep driver for the Fig. 3 / Fig. 4 reproductions, plus the
// machine-readable reporter bench_shard_scaling uses to leave a
// BENCH_<name>.json trajectory behind (schema: docs/benchmarks.md).
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.hpp"
#include "metrics/report.hpp"
#include "workload/scenario.hpp"

namespace sgprs::bench {

/// Collects named scalar metrics and writes one BENCH_<name>.json file.
///
/// The schema is deliberately flat so CI trend tooling needs no bench-
/// specific knowledge: {"bench", "schema_version", "metrics": [{"name",
/// "value", "unit"}]}. Values are doubles; anything structured belongs in a
/// new metric name, not a nested object.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void add(const std::string& metric, double value, const std::string& unit) {
    metrics_.push_back(Metric{metric, value, unit});
  }

  /// Writes BENCH_<name>.json into `dir` (default: the working directory,
  /// where CI picks the files up as artifacts). Returns the path written;
  /// exits nonzero if the file cannot be written — a silently missing
  /// report would make the perf trajectory lie by omission.
  std::string write(const std::string& dir = ".") const {
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "ERROR: cannot open " << path << " for writing\n";
      std::exit(1);
    }
    common::JsonWriter w(out);
    w.begin_object();
    w.field("bench", name_);
    w.field("schema_version", 2);
    w.key("metrics").begin_array();
    for (const auto& m : metrics_) {
      w.begin_object();
      w.field("name", m.name);
      w.field("value", m.value);
      w.field("unit", m.unit);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out << "\n";
    out.flush();
    if (!out) {
      std::cerr << "ERROR: failed writing " << path << "\n";
      std::exit(1);
    }
    std::cerr << "wrote " << path << "\n";
    return path;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::string name_;
  std::vector<Metric> metrics_;
};

struct FigureSweep {
  std::string label;                 // e.g. "naive", "SGPRS 1.5"
  std::vector<workload::ScenarioResult> results;
};

inline workload::ScenarioConfig figure_base(int num_contexts) {
  workload::ScenarioConfig cfg;
  cfg.num_contexts = num_contexts;
  cfg.duration = common::SimTime::from_sec(2.0);
  cfg.warmup = common::SimTime::from_sec(0.4);
  return cfg;
}

/// Runs the paper's comparison set over n = [from, to]: the naive baseline
/// plus SGPRS at over-subscription 1.0 / 1.5 / 2.0.
inline std::vector<FigureSweep> run_figure(int num_contexts, int from,
                                           int to) {
  std::vector<FigureSweep> sweeps;
  {
    auto cfg = figure_base(num_contexts);
    cfg.scheduler = workload::SchedulerKind::kNaive;
    sweeps.push_back({"naive", workload::sweep_num_tasks(cfg, from, to)});
    std::cerr << "  naive done\n";
  }
  for (double os : {1.0, 1.5, 2.0}) {
    auto cfg = figure_base(num_contexts);
    cfg.scheduler = workload::SchedulerKind::kSgprs;
    cfg.oversubscription = os;
    char label[32];
    std::snprintf(label, sizeof(label), "SGPRS %.1f", os);
    sweeps.push_back({label, workload::sweep_num_tasks(cfg, from, to)});
    std::cerr << "  " << label << " done\n";
  }
  return sweeps;
}

/// Prints the two panels of a figure: (a) total FPS, (b) DMR.
inline void print_figure(const std::string& title,
                         const std::vector<FigureSweep>& sweeps, int from) {
  const auto n_points = sweeps.front().results.size();

  std::vector<std::string> headers = {"#tasks"};
  for (const auto& s : sweeps) headers.push_back(s.label);

  metrics::Table fps(headers);
  metrics::Table dmr(headers);
  for (std::size_t i = 0; i < n_points; ++i) {
    std::vector<std::string> frow = {std::to_string(from + (int)i)};
    std::vector<std::string> drow = frow;
    for (const auto& s : sweeps) {
      frow.push_back(metrics::Table::fmt(s.results[i].fps(), 0));
      drow.push_back(metrics::Table::pct(s.results[i].dmr()));
    }
    fps.add_row(frow);
    dmr.add_row(drow);
  }

  std::cout << title << "\n\n(a) Total FPS reached\n";
  fps.print(std::cout);
  std::cout << "\n(b) Deadline miss rate\n";
  dmr.print(std::cout);

  std::cout << "\nPivot points (largest task count with zero misses):\n";
  for (const auto& s : sweeps) {
    const int pivot = workload::find_pivot(s.results, from);
    double peak = 0.0;
    for (const auto& r : s.results) peak = std::max(peak, r.fps());
    std::cout << "  " << s.label << ": pivot = " << pivot
              << " tasks, peak FPS = " << metrics::Table::fmt(peak, 0)
              << ", FPS at max load = "
              << metrics::Table::fmt(s.results.back().fps(), 0) << "\n";
  }
}

}  // namespace sgprs::bench
