#include "workloads.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "grader/loadgen.hpp"
#include "life/life.hpp"

namespace gradebench {

namespace {

using cs31::grader::Submission;
using cs31::grader::SubmissionKind;

/// xorshift32, the kit's usual deterministic PRNG.
struct Rng {
  std::uint32_t state;
  explicit Rng(std::uint32_t seed) : state(seed == 0 ? 1 : seed) {}
  std::uint32_t below(std::uint32_t n) {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    return state % n;
  }
};

std::string numbered(const char* prefix, std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s/%05zu", prefix, i);
  return buf;
}

// The closed forms of grader::mini_c_body and grader::assembly_body.
std::int32_t mini_c_answer(std::uint32_t variant) {
  const std::int32_t base = static_cast<std::int32_t>(variant % 90000);
  const std::int32_t iters = 8 + static_cast<std::int32_t>(variant % 5);
  const std::int32_t step = 1 + static_cast<std::int32_t>(variant % 9);
  // acc += helper(i, step) = 3*i + step, for i in [0, iters)
  return base + 3 * iters * (iters - 1) / 2 + iters * step;
}

std::int32_t assembly_answer(std::uint32_t variant) {
  const std::int32_t base = static_cast<std::int32_t>(variant % 90000);
  const std::int32_t iters = 3 + static_cast<std::int32_t>(variant % 6);
  // %eax += %ecx for %ecx = iters down to 1
  return base + iters * (iters + 1) / 2;
}

/// Population after the scenario's rounds, stepped by the serial
/// reference engine.
std::int32_t life_answer(const std::string& body) {
  const LifeConfig config = parse_life_config(body);
  cs31::life::SerialLife serial(cs31::life::Grid::parse(config.grid_text),
                                cs31::life::EdgeRule::Torus);
  serial.run(config.rounds);
  return static_cast<std::int32_t>(serial.grid().population());
}

/// The generators pick loop counts, thread counts and shapes from
/// `variant` modulo 2, 3, 5, 6 and 9. A seed stride that all of those
/// divide gives every seed the same mix; the seed moves only the
/// constants, soups and names, so seeds differ in bytes, not in cost.
/// The seed is reduced modulo kSeedPeriod first, so that the product never
/// wraps: a wrap would break the stride's divisibility.
constexpr std::uint32_t kSeedStride = 7920;  // 2^4 * 3^2 * 5 * 11
constexpr std::uint32_t kSeedPeriod = 500'000;

std::uint32_t variant_of(std::uint32_t seed, std::size_t i) {
  return (seed % kSeedPeriod) * kSeedStride + static_cast<std::uint32_t>(i);
}

std::vector<Item> cold_mix(std::size_t count, std::uint32_t seed) {
  std::vector<Item> items;
  items.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t variant = variant_of(seed, i);
    Item item;
    Submission& s = item.submission;
    switch (i % 3) {
      case 0:
        s.kind = SubmissionKind::MiniC;
        s.body = cs31::grader::mini_c_body(variant);
        item.expected = {"ok", mini_c_answer(variant)};
        break;
      case 1:
        s.kind = SubmissionKind::Assembly;
        s.body = cs31::grader::assembly_body(variant);
        item.expected = {"ok", assembly_answer(variant)};
        break;
      default: {
        const bool barrier = i % 6 != 5;
        s.kind = SubmissionKind::LifeTrace;
        s.body = cs31::grader::life_body(variant, barrier);
        item.expected = {barrier ? "race_free" : "race_found", life_answer(s.body)};
        break;
      }
    }
    s.id = numbered(cs31::grader::to_string(s.kind).c_str(), i);
    items.push_back(std::move(item));
  }
  return items;
}

std::vector<Item> deadline_storm(std::size_t count, std::uint32_t seed) {
  const std::vector<Item> bodies = cold_mix(count / 32 > 0 ? count / 32 : 1, seed);
  Rng rng(seed * 69069u + 12345u);
  std::vector<Item> items;
  items.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Item item = bodies[rng.below(static_cast<std::uint32_t>(bodies.size()))];
    item.submission.id = numbered("storm", i);
    items.push_back(std::move(item));
  }
  return items;
}

/// One thread per line, ops separated by ';' (the grader's script form).
std::string script(const std::vector<std::string>& threads) {
  std::string body;
  for (const std::string& t : threads) body += t + '\n';
  return body;
}

std::vector<Item> script_review(std::size_t count, std::uint32_t seed) {
  std::vector<Item> items;
  items.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t variant = variant_of(seed, i);
    const std::size_t nthreads = 3 + variant % 2;
    const std::string v = std::to_string(variant);
    const std::string guarded = "lock m; read c" + v + "; write c" + v + "; unlock m";
    std::vector<std::string> threads(nthreads, guarded);
    Item item;
    if (i % 8 == 7) {
      threads.back() = "lock m; spin c" + v + "; unlock m";
      item.expected = {"invalid", std::nullopt};
    } else if (i % 3 == 0) {
      item.expected = {"race_free", std::nullopt};
    } else if (i % 3 == 1) {
      threads.back() = "write c" + v;
      item.expected = {"race_found", std::nullopt};
    } else {
      // Lock ring: thread t nests m<t> then m<t+1 mod n>. Its shared
      // accesses are reads, so the only defect is the wait cycle.
      for (std::size_t t = 0; t < nthreads; ++t) {
        const std::string a = "m" + std::to_string(t);
        const std::string b = "m" + std::to_string((t + 1) % nthreads);
        threads[t] = "lock " + a + "; lock " + b + "; read d" + v + "; unlock " + b +
                     "; unlock " + a;
      }
      item.expected = {"deadlock_found", std::nullopt};
    }
    item.submission.kind = SubmissionKind::Script;
    item.submission.body = script(threads);
    item.submission.id = numbered("script", i);
    items.push_back(std::move(item));
  }
  return items;
}

/// The string value of `"key":"..."` in a flat JSON object.
std::string string_field(const std::string& json, const std::string& key) {
  const std::string tag = "\"" + key + "\":\"";
  const auto at = json.find(tag);
  if (at == std::string::npos) return {};
  const auto begin = at + tag.size();
  return json.substr(begin, json.find('"', begin) - begin);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"cold_mix", "deadline_storm",
                                                  "script_review"};
  return kNames;
}

std::vector<Item> make_workload(const std::string& name, std::size_t count,
                                std::uint32_t seed) {
  if (name == "cold_mix") return cold_mix(count, seed);
  if (name == "deadline_storm") return deadline_storm(count, seed);
  if (name == "script_review") return script_review(count, seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

LifeConfig parse_life_config(const std::string& body) {
  LifeConfig config;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    const auto eq = line.find('=');
    if (config.grid_text.empty() && eq != std::string::npos) {
      const std::string key = line.substr(0, eq);
      const std::string value = line.substr(eq + 1);
      if (key == "threads") config.threads = std::stoul(value);
      if (key == "rounds") config.rounds = std::stoul(value);
      if (key == "barrier") config.barrier = value == "1";
      continue;
    }
    config.grid_text += line + '\n';
  }
  return config;
}

std::string check_report(const std::string& line, const Expected& expected) {
  if (line.empty()) return "no report line";
  const std::string status = string_field(line, "status");
  if (status != expected.status) {
    return "status " + status + ", expected " + expected.status;
  }
  if (expected.result) {
    const auto at = line.find("\"result\":");
    const long result = at == std::string::npos ? -1 : std::stol(line.substr(at + 9));
    if (at == std::string::npos || result != *expected.result) {
      return "result " + std::to_string(result) + ", expected " +
             std::to_string(*expected.result);
    }
  }
  return {};
}

}  // namespace gradebench
