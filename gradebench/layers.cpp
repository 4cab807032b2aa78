#include "layers.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "analyze/checks_c.hpp"
#include "analyze/checks_isa.hpp"
#include "analyze/checks_script.hpp"
#include "ccomp/codegen.hpp"
#include "ccomp/parser.hpp"
#include "grader/cache.hpp"
#include "isa/assembler.hpp"
#include "isa/machine.hpp"
#include "life/traced.hpp"
#include "race/explore.hpp"
#include "workloads.hpp"

namespace gradebench {

namespace grader = cs31::grader;

namespace {

/// run_toolchain time per submission kind, indexed by SubmissionKind.
constexpr const char* kTotals[] = {"toolchain.minic_us", "toolchain.asm_us",
                                   "toolchain.life_us", "toolchain.script_us"};

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void LayerTrace::Pass::add(const std::string& name, double value) {
  auto& [sum, calls] = sums[name];
  sum += value;
  ++calls;
}

double LayerTrace::Pass::sum(const std::string& name) const {
  const auto it = sums.find(name);
  return it == sums.end() ? 0 : it->second.first;
}

grader::Verdict LayerTrace::record(const grader::Submission& submission,
                                   const Limits& limits) {
  const auto begin = Clock::now();
  grader::Verdict verdict = grader::run_toolchain(submission, limits);
  pass_.add(kTotals[static_cast<int>(submission.kind)], micros_since(begin));

  switch (submission.kind) {
    case grader::SubmissionKind::MiniC: replay_mini_c(submission.body, limits); break;
    case grader::SubmissionKind::Assembly: replay_assembly(submission.body, limits); break;
    case grader::SubmissionKind::LifeTrace: replay_life(submission.body); break;
    case grader::SubmissionKind::Script: replay_script(submission.body, limits); break;
  }
  return verdict;
}

// The replays below call what grader/toolchain.cpp calls, in its order.
// Each stage's time goes to its metric and to the attributed total.

namespace {

struct StageClock {
  LayerTrace::Pass& pass;
  Clock::time_point begin = Clock::now();

  /// Close the running stage under `name` and start the next one.
  void lap(const std::string& name) {
    const double us = micros_since(begin);
    pass.add(name, us);
    pass.stage_us += us;
    begin = Clock::now();
  }
};

cs31::isa::Machine::RunLimits run_limits(const LayerTrace::Limits& limits) {
  return {limits.max_instructions, limits.max_seconds};
}

}  // namespace

void LayerTrace::replay_mini_c(const std::string& body, const Limits& limits) {
  // The workload bodies carry no `// args:` directive, so main gets none.
  StageClock clock{pass_};
  const cs31::cc::ProgramAst ast = cs31::cc::parse(body);
  clock.lap("ccomp.parse_us");
  const auto findings = cs31::analyze::analyze_program(ast).size();
  clock.lap("analyze.c_us");
  const std::string text = cs31::cc::generate(ast);
  clock.lap("ccomp.codegen_us");
  [[maybe_unused]] const cs31::isa::Image image = cs31::isa::assemble(text);
  clock.lap("isa.assemble_us");
  const cs31::isa::Image entry = cs31::cc::compile_with_entry(body, {});
  clock.lap("ccomp.entry_compile_us");
  std::optional<cs31::isa::Machine> machine;
  machine.emplace().load(entry);
  clock.lap("isa.machine_setup_us");
  const auto outcome = machine->run_limited(run_limits(limits));
  clock.lap("isa.run_us");

  pass_.add("analyze.findings", static_cast<double>(findings));
  const auto lines = std::count(text.begin(), text.end(), '\n');
  pass_.add("ccomp.asm_lines", static_cast<double>(lines));
  pass_.add("isa.instructions", static_cast<double>(outcome.instructions));
}

void LayerTrace::replay_assembly(const std::string& body, const Limits& limits) {
  // Kept apart from the isa.* metrics, which follow the mini-C path.
  StageClock clock{pass_};
  const cs31::isa::Image image = cs31::isa::assemble(body);
  clock.lap("asm.assemble_us");
  const auto findings = cs31::analyze::lint_image(image).size();
  clock.lap("analyze.isa_lint_us");
  std::optional<cs31::isa::Machine> machine;
  machine.emplace().load(image);
  clock.lap("asm.machine_setup_us");
  (void)machine->run_limited(run_limits(limits));
  clock.lap("asm.run_us");

  pass_.add("analyze.findings", static_cast<double>(findings));
}

void LayerTrace::replay_life(const std::string& body) {
  const LifeConfig config = parse_life_config(body);
  const cs31::life::Grid grid = cs31::life::Grid::parse(config.grid_text);
  StageClock clock{pass_};
  const cs31::life::TracedLifeResult result =
      cs31::life::traced_life_check(grid, config.threads, config.rounds, config.barrier);
  clock.lap("life.traced_check_us");
  pass_.add("life.events", static_cast<double>(result.events));
}

void LayerTrace::replay_script(const std::string& body, const Limits& limits) {
  std::vector<std::vector<std::string>> scripts;
  std::istringstream lines(body);
  std::string line, op;
  while (std::getline(lines, line)) {
    std::vector<std::string> ops;
    std::istringstream parts(line);
    while (std::getline(parts, op, ';')) {
      const auto first = op.find_first_not_of(' ');
      if (first != std::string::npos) {
        ops.push_back(op.substr(first, op.find_last_not_of(' ') - first + 1));
      }
    }
    if (!ops.empty()) scripts.push_back(std::move(ops));
  }

  StageClock clock{pass_};
  std::optional<cs31::analyze::ConcurSummary> summary;
  try {
    summary = cs31::analyze::analyze_scripts(scripts);
  } catch (const std::exception&) {
    // A malformed op: the grader stops here with `invalid`.
  }
  clock.lap("analyze.concur_us");
  if (!summary) return;

  cs31::race::ExploreOptions options = cs31::analyze::seed_explore_options(*summary);
  options.max_schedules = 4096;
  options.max_events = limits.max_instructions;
  const cs31::race::ExploreResult explored = cs31::race::explore_races(scripts, options);
  clock.lap("race.explore_us");

  pass_.add("analyze.findings", static_cast<double>(summary->diagnostics.size()));
  pass_.add("race.schedules", static_cast<double>(explored.schedules_replayed));
  pass_.add("race.nodes_visited", static_cast<double>(explored.nodes_visited));
  pass_.add("race.sleep_pruned", static_cast<double>(explored.sleep_pruned));
  pass_.add("race.interleavings", static_cast<double>(explored.interleavings_total));
}

void LayerTrace::end_pass() {
  for (const auto& [name, sum_calls] : pass_.sums) {
    per_pass_[name].push_back(sum_calls.first / static_cast<double>(sum_calls.second));
  }
  // Ratios of pass sums, not means of per-call ratios.
  double toolchain_us = 0;
  for (const char* kind : kTotals) toolchain_us += pass_.sum(kind);
  per_pass_["toolchain.unattributed_share"].push_back(1 - pass_.stage_us / toolchain_us);
  if (const double life_us = pass_.sum("life.traced_check_us"); life_us > 0) {
    per_pass_["life.events_per_s"].push_back(pass_.sum("life.events") / life_us * 1e6);
  }
  if (const double schedules = pass_.sum("race.schedules"); schedules > 0) {
    per_pass_["race.reduction"].push_back(pass_.sum("race.interleavings") / schedules);
  }
  pass_ = Pass{};
}

void LayerTrace::report(Metrics& out) const {
  static const std::pair<const char*, const char*> kReported[] = {
      {"toolchain.minic_us", "us"},     {"toolchain.asm_us", "us"},
      {"toolchain.life_us", "us"},      {"toolchain.script_us", "us"},
      {"toolchain.unattributed_share", "share"},
      {"ccomp.parse_us", "us"},         {"ccomp.codegen_us", "us"},
      {"ccomp.entry_compile_us", "us"}, {"ccomp.asm_lines", "count"},
      {"analyze.c_us", "us"},           {"analyze.isa_lint_us", "us"},
      {"analyze.concur_us", "us"},      {"analyze.findings", "count"},
      {"isa.assemble_us", "us"},        {"isa.machine_setup_us", "us"},
      {"isa.run_us", "us"},             {"isa.instructions", "count"},
      {"life.traced_check_us", "us"},   {"life.events", "count"},
      {"life.events_per_s", "1/s"},     {"race.explore_us", "us"},
      {"race.schedules", "count"},      {"race.nodes_visited", "count"},
      {"race.sleep_pruned", "count"},   {"race.reduction", "ratio"},
  };
  for (const auto& [name, unit] : kReported) {
    const auto it = per_pass_.find(name);
    out.add(name, it == per_pass_.end() ? 0 : median(it->second), unit);
  }
}

double cache_hit_us() {
  grader::VerdictCache cache;
  const auto compute = [] { return grader::Verdict{}; };
  (void)cache.get_or_compute(1, compute);
  constexpr int kBatch = 1000;
  std::vector<double> per_call;
  for (int b = 0; b < 41; ++b) {
    const auto begin = Clock::now();
    for (int i = 0; i < kBatch; ++i) (void)cache.get_or_compute(1, compute);
    per_call.push_back(micros_since(begin) / kBatch);
  }
  return median(per_call);
}

}  // namespace gradebench
