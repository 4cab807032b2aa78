// gradebench workloads: seeded submission batches, each submission paired
// with the verdict an oracle independent of the grader says it must get.
//
//   cold_mix        distinct mini-C, assembly and traced-Life bodies in the
//                   loadgen `steady` rotation (every other Life body, one
//                   submission in six, drops the barrier). Every grade is a
//                   full toolchain run.
//   deadline_storm  the loadgen `duplicate_storm` shape: count/32 distinct
//                   cold_mix bodies, picked at random for every slot, so
//                   ~97% of submissions duplicate an earlier one.
//   script_review   3- and 4-thread op scripts in clean (one lock guards
//                   the counter), racy (one thread writes unguarded) and
//                   deadlocking (lock ring) shapes; every eighth script
//                   carries an op the grammar rejects.
//
// Known answers: mini-C and assembly return values are computed
// arithmetically from the generator's variant, the Life population comes
// from life::SerialLife and its race verdict from the barrier flag, and a
// script's verdict is the shape it was built with.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "grader/submission.hpp"

namespace gradebench {

struct Expected {
  std::string status;
  std::optional<std::int32_t> result;  ///< checked only when set
};

struct Item {
  cs31::grader::Submission submission;
  Expected expected;
};

/// The workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// `count` submissions of the named workload, a pure function of
/// (name, count, seed). Throws std::invalid_argument for unknown names.
[[nodiscard]] std::vector<Item> make_workload(const std::string& name, std::size_t count,
                                              std::uint32_t seed);

/// The fields of a generated traced-Life scenario config (header keys,
/// then the lab's grid block; the rule is always torus).
struct LifeConfig {
  std::size_t threads = 2;
  std::size_t rounds = 1;
  bool barrier = true;
  std::string grid_text;
};
[[nodiscard]] LifeConfig parse_life_config(const std::string& body);

/// Compare one report line (or a bare verdict object) with what was
/// expected. Returns an empty string on a match, otherwise the reason.
[[nodiscard]] std::string check_report(const std::string& line, const Expected& expected);

}  // namespace gradebench
