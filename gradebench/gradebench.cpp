// gradebench: submission-to-verdict performance of cs31::grader::GraderService.
//
//   gradebench --workload NAME (--seed N | --held-out) --seconds S --trace 0|1
//
// One process drives one service shape: 2 grading workers, so the
// submitter, the router and the workers make 4 threads (the Explorer adds
// a replay thread while it explores). Programs run under a
// 200 000-instruction budget.
//
// Set-up (generate the workload with its known answers, build a service,
// grade a warm-up batch) is repeated and its median CPU time reported as
// setup_s; then a short unrecorded settle.
//
// --trace 0 (the measured run) alternates two kinds of round until S
// seconds have passed, each on a fresh service so no round is served from
// an earlier round's cache:
//   burst        the whole batch is submitted back to back; the clock stops
//                when wait_idle() returns (cpu_us_per_graded; graded_per_s
//                in the detail line);
//   closed loop  one client, submit(s) then wait_idle(), over a sample of
//                the same workload (verdict_p50_us in the detail line).
// Medians are taken over the rounds that other guests on the host hit
// least (quiet_rounds).
//
// --trace 1 (the traced run) does no end-to-end reporting. It repeats the
// rounds with a clock around each submit() in one burst of each pair (the
// difference is trace.overhead_share), then times every layer from outside
// the service (layers.hpp).
//
// Every report line is checked against the workload's known answer; a
// missing line, a grader_error or a wrong verdict counts as failed and
// makes the run incorrect. The last stdout line is the result object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "grader/service.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

using cs31::grader::GraderService;
using gradebench::Clock;
using gradebench::Item;
using gradebench::median;
using gradebench::Metrics;
using gradebench::micros_since;
using gradebench::quantile;

/// Never used while the benchmark was tuned; --held-out runs it.
constexpr std::uint32_t kHeldOutSeed = 20261017;
constexpr int kSetups = 9;
constexpr int kMinRounds = 3;
constexpr double kSettleSeconds = 1.5;

struct Args {
  std::string workload;
  std::uint32_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

/// Batch sizes per workload: a burst takes ~0.2 s on a 4-core host, so a
/// run holds dozens of rounds.
struct Shape {
  std::size_t burst;
  std::size_t sample;  ///< closed-loop submissions per round
  std::size_t warmup;
};

Shape shape_of(const std::string& workload) {
  if (workload == "cold_mix") return {600, 60, 60};
  if (workload == "deadline_storm") return {6000, 128, 600};
  return {240, 48, 48};  // script_review
}

GraderService::Options service_options() {
  GraderService::Options options;
  options.workers = 2;
  options.queue_capacity = 64;
  options.limits = cs31::grader::ToolchainLimits{200'000, 5.0};
  return options;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Submissions attempted and failed, with the first few reasons.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(const std::vector<std::string>& lines, const std::vector<Item>& items,
             std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      ++attempted;
      const std::string why = gradebench::check_report(i < lines.size() ? lines[i] : "",
                                                       items[i].expected);
      if (why.empty()) continue;
      if (++failed <= 5) {
        std::fprintf(stderr, "gradebench: %s: %s\n", items[i].submission.id.c_str(),
                     why.c_str());
      }
    }
  }
};

struct Burst {
  double graded_per_s = 0;
  double cpu_us_per_graded = 0;
  double submit_block_share = 0;  ///< only when submits are timed
  GraderService::Stats stats;
};

Burst run_burst(const std::vector<Item>& items, std::size_t count, bool time_submits,
                Tally& tally) {
  GraderService service(service_options());
  double blocked_us = 0;
  const double cpu_begin = process_cpu_s();
  const auto begin = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    if (time_submits) {
      const auto submit_begin = Clock::now();
      service.submit(items[i].submission);
      blocked_us += micros_since(submit_begin);
    } else {
      service.submit(items[i].submission);
    }
  }
  service.wait_idle();
  const double wall_us = micros_since(begin);
  const double cpu_s = process_cpu_s() - cpu_begin;

  Burst burst;
  const auto n = static_cast<double>(count);
  burst.graded_per_s = n / wall_us * 1e6;
  burst.cpu_us_per_graded = cpu_s / n * 1e6;
  burst.submit_block_share = blocked_us / wall_us;
  burst.stats = service.stats();
  tally.check(service.report_lines(), items, count);
  return burst;
}

std::vector<double> run_closed_loop(const std::vector<Item>& items, Tally& tally) {
  GraderService service(service_options());
  std::vector<double> latencies;
  latencies.reserve(items.size());
  for (const Item& item : items) {
    const auto begin = Clock::now();
    service.submit(item.submission);
    service.wait_idle();
    latencies.push_back(micros_since(begin));
  }
  tally.check(service.report_lines(), items, items.size());
  return latencies;
}

struct Workload {
  std::vector<Item> burst;
  std::vector<Item> sample;
};

/// Hypervisor steal time so far, in seconds summed over all CPUs (the
/// eighth field of /proc/stat's cpu line; 0 where it is not reported).
double steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  in >> cpu;
  for (double& f : fields) in >> f;
  return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// The share of the CPU capacity since construction that the hypervisor
/// gave to other guests.
class StealMeter {
 public:
  [[nodiscard]] double share() const {
    const double capacity_s =
        micros_since(begin_) * 1e-6 * static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
    return (steal_s() - steal_begin_) / capacity_s;
  }

 private:
  double steal_begin_ = steal_s();
  Clock::time_point begin_ = Clock::now();
};

/// Interference rejection: the rounds whose steal share is at most the
/// run's median. On a shared host, other guests take a varying share of
/// the CPUs, and the rounds they hit least vary least from run to run.
/// Where the host reports no steal, every round is kept.
template <typename Round>
std::vector<const Round*> quiet_rounds(const std::vector<Round>& rounds) {
  std::vector<double> steal;
  for (const Round& r : rounds) steal.push_back(r.steal_share);
  const double cut = median(steal);
  std::vector<const Round*> kept;
  for (const Round& r : rounds) {
    if (r.steal_share <= cut) kept.push_back(&r);
  }
  return kept;
}

/// Generate the workload, build a service and grade the warm-up batch,
/// kSetups times; setup_s is the median process CPU time of one set-up.
/// CPU time, because on a shared host the wall time of a set-up this short
/// mostly measures thread wake-ups and other guests, while work moved into
/// set-up shows in full as CPU time.
Workload set_up(const Args& args, const Shape& shape, Tally& tally, double& setup_s) {
  Workload workload;
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetups; ++rep) {
    const double cpu_begin = process_cpu_s();
    workload.burst = gradebench::make_workload(args.workload, shape.burst, args.seed);
    workload.sample = gradebench::make_workload(args.workload, shape.sample, args.seed);
    (void)run_burst(workload.burst, shape.warmup, false, tally);
    seconds.push_back(process_cpu_s() - cpu_begin);
  }
  setup_s = median(seconds);
  return workload;
}

/// Unrecorded rounds before the clock starts. The first fraction of a
/// second of rounds on an idle host runs markedly slower (thread wake-ups
/// are slow until the cores are busy), which is not the deadline-hour
/// steady state the rounds measure.
void settle(const Workload& workload, const Shape& shape, double seconds, Tally& tally) {
  const auto end =
      Clock::now() + std::chrono::duration<double>(std::min(kSettleSeconds, seconds / 4));
  do {
    (void)run_burst(workload.burst, shape.burst, false, tally);
    (void)run_closed_loop(workload.sample, tally);
  } while (Clock::now() < end);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double load_average() {
  std::ifstream in("/proc/loadavg");
  double one_minute = -1;
  in >> one_minute;
  return one_minute;
}

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

std::string number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

std::string json_object(const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    if (out.size() > 1) out += ", ";
    out += "\"" + key + "\": " + value;
  }
  return out + "}";
}

std::string metrics_json(const Metrics& metrics) {
  std::vector<std::pair<std::string, std::string>> fields;
  for (const Metrics::Entry& e : metrics.entries) {
    fields.emplace_back(e.name, json_object({{"value", number(e.value)},
                                             {"unit", "\"" + e.unit + "\""}}));
  }
  return json_object(fields);
}

using Fields = std::vector<std::pair<std::string, std::string>>;

struct Round {
  double graded_per_s = 0;
  double cpu_us_per_graded = 0;
  std::vector<double> latencies;
  double steal_share = 0;
};

void measured_run(const Args& args, const Shape& shape, const Workload& workload,
                  Tally& tally, Metrics& out, Fields& detail) {
  std::vector<Round> rounds;
  const auto end = Clock::now() + std::chrono::duration<double>(args.seconds);
  do {
    const StealMeter meter;
    const Burst burst = run_burst(workload.burst, shape.burst, false, tally);
    Round& round = rounds.emplace_back();
    round.graded_per_s = burst.graded_per_s;
    round.cpu_us_per_graded = burst.cpu_us_per_graded;
    round.latencies = run_closed_loop(workload.sample, tally);
    round.steal_share = meter.share();
  } while (Clock::now() < end || rounds.size() < kMinRounds);

  std::vector<double> rates, cpu_costs, latencies;
  for (const Round* round : quiet_rounds(rounds)) {
    rates.push_back(round->graded_per_s);
    cpu_costs.push_back(round->cpu_us_per_graded);
    latencies.insert(latencies.end(), round->latencies.begin(), round->latencies.end());
  }
  out.add("cpu_us_per_graded", median(cpu_costs), "us");
  // Wall-clock figures follow the host's steal from run to run (see
  // README.md), so they ride beside the gated metrics, not among them.
  detail.emplace_back("rounds", std::to_string(rounds.size()));
  detail.emplace_back("rounds_kept", std::to_string(rates.size()));
  detail.emplace_back("graded_per_s", number(median(rates)));
  detail.emplace_back("graded_per_s_q1_q3", "[" + number(quantile(rates, 0.25)) + ", " +
                                                number(quantile(rates, 0.75)) + "]");
  detail.emplace_back("latency_samples", std::to_string(latencies.size()));
  detail.emplace_back("verdict_p50_us", number(median(latencies)));
  detail.emplace_back("verdict_p90_us", number(quantile(latencies, 0.9)));
  detail.emplace_back("verdict_p99_us", number(quantile(latencies, 0.99)));
}

struct TracedRound {
  double plain_graded_per_s = 0;  ///< the same burst with no clock around submit()
  Burst traced;
  std::vector<double> latencies;
  double steal_share = 0;
};

void traced_run(const Args& args, const Shape& shape, const Workload& workload,
                Tally& tally, Metrics& out) {
  // Phase 1 (half the time): the service seen from the submitter.
  std::vector<TracedRound> rounds;
  const std::chrono::duration<double> half_time(args.seconds / 2);
  const auto half = Clock::now() + half_time;
  do {
    const StealMeter meter;
    TracedRound& round = rounds.emplace_back();
    // Alternate which of the pair goes first, so neither side always
    // runs on the state the other left behind.
    const bool plain_first = rounds.size() % 2 == 1;
    const auto plain = [&] {
      const Burst untraced = run_burst(workload.burst, shape.burst, false, tally);
      round.plain_graded_per_s = untraced.graded_per_s;
    };
    if (plain_first) plain();
    round.traced = run_burst(workload.burst, shape.burst, true, tally);
    if (!plain_first) plain();
    round.latencies = run_closed_loop(workload.sample, tally);
    round.steal_share = meter.share();
  } while (Clock::now() < half || rounds.size() < kMinRounds);

  // The tail comes from every round: rejecting the rounds other guests hit
  // hardest would cut the wake-up delays it is there to show.
  std::vector<double> all_latencies;
  for (const TracedRound& round : rounds) {
    const auto& l = round.latencies;
    all_latencies.insert(all_latencies.end(), l.begin(), l.end());
  }
  std::vector<double> plain_rates, traced_rates, latencies, block_shares, waits, skews,
      hit_ratios, collapsed, entries, runs;
  std::vector<std::vector<double>> latency_by_item(workload.sample.size());
  for (const TracedRound* round : quiet_rounds(rounds)) {
    plain_rates.push_back(round->plain_graded_per_s);
    traced_rates.push_back(round->traced.graded_per_s);
    block_shares.push_back(round->traced.submit_block_share);
    const GraderService::Stats& s = round->traced.stats;
    waits.push_back(static_cast<double>(s.publish_waits));
    double max_graded = 0, sum_graded = 0;
    for (const std::uint64_t g : s.graded_per_worker) {
      max_graded = std::max(max_graded, static_cast<double>(g));
      sum_graded += static_cast<double>(g);
    }
    skews.push_back(max_graded * static_cast<double>(s.graded_per_worker.size()) /
                    sum_graded);
    const std::uint64_t lookups = s.cache.hits + s.cache.misses + s.cache.collapsed;
    hit_ratios.push_back(static_cast<double>(s.cache.hits) / static_cast<double>(lookups));
    collapsed.push_back(static_cast<double>(s.cache.collapsed));
    entries.push_back(static_cast<double>(s.cache.entries));
    runs.push_back(static_cast<double>(s.toolchain_runs));
    for (std::size_t j = 0; j < round->latencies.size(); ++j) {
      latency_by_item[j].push_back(round->latencies[j]);
    }
    latencies.insert(latencies.end(), round->latencies.begin(), round->latencies.end());
  }

  // Phase 2: the direct cost behind each closed-loop verdict (the
  // toolchain for a body's first appearance in the sample, a cache hit
  // after that), then passes of per-layer timing over the distinct bodies
  // of the burst until time is up.
  const auto limits = service_options().limits;
  const double hit_us = gradebench::cache_hit_us();
  std::set<cs31::grader::ContentHash> seen;
  std::vector<double> handoffs;
  for (std::size_t j = 0; j < workload.sample.size(); ++j) {
    const Item& item = workload.sample[j];
    double direct_us = hit_us;
    if (seen.insert(cs31::grader::content_hash(item.submission)).second) {
      std::vector<double> reps;
      for (int rep = 0; rep < 3; ++rep) {
        const auto begin = Clock::now();
        const auto verdict = cs31::grader::run_toolchain(item.submission, limits);
        reps.push_back(micros_since(begin));
        tally.check({verdict.to_json()}, {item}, 1);
      }
      direct_us = median(reps);
    }
    for (const double us : latency_by_item[j]) handoffs.push_back(us - direct_us);
  }

  std::vector<const Item*> distinct;
  seen.clear();
  for (const Item& item : workload.burst) {
    if (seen.insert(cs31::grader::content_hash(item.submission)).second) {
      distinct.push_back(&item);
    }
  }
  gradebench::LayerTrace layers;
  do {
    for (const Item* item : distinct) {
      tally.check({layers.record(item->submission, limits).to_json()}, {*item}, 1);
    }
    layers.end_pass();
  } while (Clock::now() < half + half_time);

  out.add("service.graded_per_s", median(plain_rates), "1/s");
  out.add("service.verdict_p50_us", median(latencies), "us");
  out.add("service.handoff_us", median(handoffs), "us");
  out.add("service.verdict_p99_us", quantile(all_latencies, 0.99), "us");
  out.add("service.submit_block_share", median(block_shares), "share");
  out.add("service.publish_waits", median(waits), "count");
  out.add("service.worker_skew", median(skews), "ratio");
  out.add("cache.hit_ratio", median(hit_ratios), "share");
  out.add("cache.collapsed", median(collapsed), "count");
  out.add("cache.entries", median(entries), "count");
  out.add("cache.hit_us", hit_us, "us");
  out.add("toolchain.runs", median(runs), "count");
  layers.report(out);
  out.add("trace.overhead_share", 1 - median(traced_rates) / median(plain_rates), "share");
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--held-out") {
      args.seed = kHeldOutSeed;
      have_seed = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = static_cast<std::uint32_t>(std::stoul(value));
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
        have_trace = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  const auto& names = gradebench::workload_names();
  const bool known = std::find(names.begin(), names.end(), args.workload) != names.end();
  return known && have_seed && have_seconds && have_trace;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: gradebench --workload cold_mix|deadline_storm|script_review "
                 "(--seed N | --held-out) --seconds S --trace 0|1\n");
    return 2;
  }
  const double load_at_start = load_average();
  const StealMeter run_steal;
  const Shape shape = shape_of(args.workload);
  Tally tally;
  Metrics metrics;
  Fields detail = {
      {"workload", "\"" + args.workload + "\""},
      {"seed", std::to_string(args.seed)},
      {"trace", args.trace ? "1" : "0"},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"loadavg_1m_at_start", number(load_at_start)},
      {"build_type", "\"" GRADEBENCH_BUILD_TYPE "\""},
      {"sanitizer", std::string("\"") + sanitizer() + "\""},
      {"workers", std::to_string(service_options().workers)},
      {"burst", std::to_string(shape.burst)},
      {"sample", std::to_string(shape.sample)},
  };

  double setup_s = 0;
  const Workload workload = set_up(args, shape, tally, setup_s);
  settle(workload, shape, args.seconds, tally);
  if (args.trace) {
    traced_run(args, shape, workload, tally, metrics);
  } else {
    measured_run(args, shape, workload, tally, metrics, detail);
    metrics.add("setup_s", setup_s, "s");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  }
  detail.emplace_back("steal_share", number(run_steal.share()));
  detail.emplace_back(
      "failed_share",
      number(static_cast<double>(tally.failed) / static_cast<double>(tally.attempted)));

  std::printf("%s\n", json_object({{"gradebench", json_object(detail)}}).c_str());
  std::printf("%s\n", json_object({{"correct", tally.failed == 0 ? "true" : "false"},
                                   {"attempted", std::to_string(tally.attempted)},
                                   {"failed", std::to_string(tally.failed)},
                                   {"metrics", metrics_json(metrics)}})
                          .c_str());
  return 0;
}
