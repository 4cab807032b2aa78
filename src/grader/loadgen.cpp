#include "grader/loadgen.hpp"

#include <cstdio>

#include "common/error.hpp"

namespace cs31::grader {

namespace {

/// The kit's standard deterministic PRNG (same xorshift32 the sampling
/// capture and the fuzz harness use).
struct Rng {
  std::uint32_t state;
  explicit Rng(std::uint32_t seed) : state(seed == 0 ? 1 : seed) {}
  std::uint32_t next() {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    return state;
  }
  std::uint32_t below(std::uint32_t n) { return next() % n; }
};

std::string zero_padded(std::size_t n) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%05llu", static_cast<unsigned long long>(n));
  return buf;
}

/// The steady mix: cycle kinds so every third submission exercises a
/// different toolchain path; one submission in six (i % 6 == 5, half of
/// the Life scenarios) drops the barrier, so race_found verdicts appear
/// at a steady background rate.
Submission steady_submission(std::size_t i, std::uint32_t seed) {
  const std::uint32_t variant = static_cast<std::uint32_t>(i) + seed * 7919u;
  Submission s;
  switch (i % 3) {
    case 0:
      s.kind = SubmissionKind::MiniC;
      s.body = mini_c_body(variant);
      break;
    case 1:
      s.kind = SubmissionKind::Assembly;
      s.body = assembly_body(variant);
      break;
    default:
      s.kind = SubmissionKind::LifeTrace;
      s.body = life_body(variant, /*with_barrier=*/i % 6 != 5);
      break;
  }
  s.id = to_string(s.kind) + "/" + zero_padded(i);
  return s;
}

}  // namespace

std::string mini_c_body(std::uint32_t variant) {
  // Every variant is a distinct body (the raw variant number appears as
  // a literal), lint-clean, and loop-bounded: ~a dozen iterations of a
  // helper call, so a cold grade really costs a compile + execute.
  const std::uint32_t base = variant % 90000;
  const std::uint32_t iters = 8 + variant % 5;
  const std::uint32_t step = 1 + variant % 9;
  std::string src;
  src += "int helper(int a, int b) { return a * 3 + b; }\n";
  src += "int main() {\n";
  src += "  int acc = " + std::to_string(base) + ";\n";
  src += "  int i = 0;\n";
  src += "  while (i < " + std::to_string(iters) + ") {\n";
  src += "    acc = acc + helper(i, " + std::to_string(step) + ");\n";
  src += "    i = i + 1;\n";
  src += "  }\n";
  src += "  return acc;\n";
  src += "}\n";
  return src;
}

std::string assembly_body(std::uint32_t variant) {
  const std::uint32_t base = variant % 90000;
  const std::uint32_t iters = 3 + variant % 6;
  std::string src;
  src += "_start:\n";
  src += "    movl $" + std::to_string(base) + ", %eax\n";
  src += "    movl $" + std::to_string(iters) + ", %ecx\n";
  src += "again:\n";
  src += "    addl %ecx, %eax\n";
  src += "    decl %ecx\n";
  src += "    cmpl $0, %ecx\n";
  src += "    jne again\n";
  src += "    hlt\n";
  return src;
}

std::string life_body(std::uint32_t variant, bool with_barrier) {
  // An 8x8 soup with ~14 live cells placed by the variant-seeded PRNG;
  // 2 or 4 bands, 2 rounds. Enough cells that the barrier-less variant
  // reliably races on the band boundaries.
  Rng rng(variant * 2654435761u + 1);
  const std::size_t rows = 8, cols = 8;
  std::string body;
  body += "threads=" + std::to_string(variant % 2 == 0 ? 2 : 4) + "\n";
  body += "rounds=2\n";
  body += std::string("barrier=") + (with_barrier ? "1" : "0") + "\n";
  body += "rule=torus\n";
  body += std::to_string(rows) + " " + std::to_string(cols) + "\n";
  const std::size_t cells = 14;
  body += std::to_string(cells) + "\n";
  for (std::size_t i = 0; i < cells; ++i) {
    body += std::to_string(rng.below(rows)) + " " + std::to_string(rng.below(cols)) + "\n";
  }
  return body;
}

std::string poison_spin_assembly() {
  return "_start:\n    jmp _start\n";
}

std::string poison_spin_mini_c() {
  // Not a constant condition (the analyzer would flag that); the loop
  // body just never makes progress.
  return "int main() {\n  int i = 0;\n  while (i < 2) {\n    i = i * 1;\n  }\n  return i;\n}\n";
}

std::string poison_bad_life() {
  return "threads=two\nrounds=1\n8 8\n0\n";
}

std::string poison_bad_mini_c() {
  return "int main() {\n  return 1 +;\n}\n";
}

std::string script_body_clean(std::uint32_t variant) {
  // The variant lands in the counter's name, so every body is distinct
  // (distinct content hashes) while the shape — and the verdict — stays
  // fixed: one consistent guard, race_free, full marks.
  const std::string c = "c" + std::to_string(variant % 90000);
  std::string body;
  body += "lock m; read " + c + "; write " + c + "; unlock m\n";
  body += "lock m; read " + c + "; write " + c + "; unlock m\n";
  return body;
}

std::string script_body_racy(std::uint32_t variant) {
  // Thread 1 forgets the lock on its write — the classic lost-update
  // homework bug. The static pass flags the candidate and exploration
  // confirms it (verdict "race_found").
  const std::string c = "c" + std::to_string(variant % 90000);
  std::string body;
  body += "lock m; read " + c + "; write " + c + "; unlock m\n";
  body += "write " + c + "\n";
  return body;
}

std::string script_body_deadlock(std::uint32_t variant) {
  // ABBA: opposite nesting orders on the same two mutexes. The static
  // pass reports the lock-order cycle; blocking-aware exploration
  // reaches the stuck state (verdict "deadlock_found").
  const std::string d = "d" + std::to_string(variant % 90000);
  std::string body;
  body += "lock a; lock b; write " + d + "; unlock b; unlock a\n";
  body += "lock b; lock a; read " + d + "; unlock a; unlock b\n";
  return body;
}

std::string poison_bad_script() {
  return "lock m; spin c; unlock m\n";
}

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> kNames = {"steady", "bursty", "duplicate_storm",
                                                  "poison", "script_review"};
  return kNames;
}

LoadPlan make_scenario(const std::string& name, std::size_t count, std::uint32_t seed) {
  require(count > 0, "load scenario needs at least one submission");
  LoadPlan plan;
  plan.submissions.reserve(count);
  Rng rng(seed * 69069u + 12345u);

  if (name == "steady") {
    for (std::size_t i = 0; i < count; ++i) {
      plan.submissions.push_back(steady_submission(i, seed));
    }
    plan.bursts.push_back(count);
    return plan;
  }

  if (name == "bursty") {
    for (std::size_t i = 0; i < count; ++i) {
      plan.submissions.push_back(steady_submission(i, seed));
    }
    // Deadline spikes: bursts between 1 and ~count/4 submissions, so a
    // driver alternates queue-saturating waves with near-idle gaps.
    std::size_t remaining = count;
    const std::uint32_t max_burst =
        static_cast<std::uint32_t>(count / 4 > 1 ? count / 4 : 1);
    while (remaining > 0) {
      const std::size_t burst = 1 + rng.below(max_burst);
      const std::size_t take = burst < remaining ? burst : remaining;
      plan.bursts.push_back(take);
      remaining -= take;
    }
    return plan;
  }

  if (name == "duplicate_storm") {
    // A handful of distinct bodies — everyone submits the starter code.
    const std::size_t distinct = count / 32 > 0 ? count / 32 : 1;
    std::vector<Submission> bodies;
    bodies.reserve(distinct);
    for (std::size_t i = 0; i < distinct; ++i) {
      bodies.push_back(steady_submission(i, seed));
    }
    for (std::size_t i = 0; i < count; ++i) {
      Submission s = bodies[rng.below(static_cast<std::uint32_t>(distinct))];
      s.id = "storm/" + zero_padded(i);
      plan.submissions.push_back(std::move(s));
    }
    plan.bursts.push_back(count);
    return plan;
  }

  if (name == "poison") {
    for (std::size_t i = 0; i < count; ++i) {
      if (i % 8 == 7) {
        Submission s;
        switch ((i / 8) % 4) {
          case 0:
            s.kind = SubmissionKind::Assembly;
            s.body = poison_spin_assembly();
            break;
          case 1:
            s.kind = SubmissionKind::MiniC;
            s.body = poison_spin_mini_c();
            break;
          case 2:
            s.kind = SubmissionKind::LifeTrace;
            s.body = poison_bad_life();
            break;
          default:
            s.kind = SubmissionKind::MiniC;
            s.body = poison_bad_mini_c();
            break;
        }
        s.id = "poison/" + zero_padded(i);
        plan.submissions.push_back(std::move(s));
        continue;
      }
      plan.submissions.push_back(steady_submission(i, seed));
    }
    plan.bursts.push_back(count);
    return plan;
  }

  if (name == "script_review") {
    // The concurrency homework batch: clean / racy / deadlocking shapes
    // in rotation, with a grammar-rejected script every eighth slot so
    // the pool proves it reports `invalid` without stalling the batch.
    for (std::size_t i = 0; i < count; ++i) {
      Submission s;
      s.kind = SubmissionKind::Script;
      const std::uint32_t variant = static_cast<std::uint32_t>(i) + seed * 7919u;
      if (i % 8 == 7) {
        s.body = poison_bad_script();
      } else {
        switch (i % 3) {
          case 0: s.body = script_body_clean(variant); break;
          case 1: s.body = script_body_racy(variant); break;
          default: s.body = script_body_deadlock(variant); break;
        }
      }
      s.id = "script/" + zero_padded(i);
      plan.submissions.push_back(std::move(s));
    }
    plan.bursts.push_back(count);
    return plan;
  }

  throw Error("unknown load scenario '" + name + "' (see scenario_names())");
}

}  // namespace cs31::grader
