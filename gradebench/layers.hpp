// The traced run's per-layer probes. The program has no spans of its own
// yet, so every layer is timed from here: each submission is graded once
// through grader::run_toolchain (the toolchain.* totals), and once more by
// calling the public function of each module the toolchain calls, in the
// same order, with a clock around each call. toolchain.unattributed_share
// is the part of the run_toolchain time those stage calls do not cover.
//
// Work is recorded in passes over the workload's distinct bodies. Each
// metric is a per-call mean within a pass, and the report gives its
// median over passes: a workload's bodies are a fixed mix of cheap and
// costly shapes, which a per-call median would split arbitrarily, and a
// pass that a preempted call inflated is outvoted.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "grader/submission.hpp"
#include "grader/toolchain.hpp"

namespace gradebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double micros_since(Clock::time_point begin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - begin).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Named metrics in insertion order, each with its unit.
struct Metrics {
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> entries;
  void add(std::string name, double value, std::string unit) {
    entries.push_back({std::move(name), value, std::move(unit)});
  }
};

class LayerTrace {
 public:
  using Limits = cs31::grader::ToolchainLimits;

  /// Grade `submission` with run_toolchain (timed as a whole), then replay
  /// its stages one module call at a time. Returns the direct verdict.
  cs31::grader::Verdict record(const cs31::grader::Submission& submission,
                               const Limits& limits);

  /// Close the current pass.
  void end_pass();

  /// Every toolchain/ccomp/analyze/isa/life/race metric; a layer the
  /// workload never reached reports 0.
  void report(Metrics& out) const;

  /// One pass's running sums; `stage_us` is the time the stage calls cover.
  struct Pass {
    std::map<std::string, std::pair<double, std::size_t>> sums;  ///< (sum, calls)
    double stage_us = 0;
    void add(const std::string& name, double value);
    [[nodiscard]] double sum(const std::string& name) const;
  };

 private:
  void replay_mini_c(const std::string& body, const Limits& limits);
  void replay_assembly(const std::string& body, const Limits& limits);
  void replay_life(const std::string& body);
  void replay_script(const std::string& body, const Limits& limits);

  Pass pass_;
  std::map<std::string, std::vector<double>> per_pass_;  ///< one value per pass
};

/// µs per VerdictCache::get_or_compute on a resident hash (median of
/// timed batches).
[[nodiscard]] double cache_hit_us();

}  // namespace gradebench
