// Core parallel-runtime tests: barrier semantics with real threads, the
// shared-counter race demonstration, the bounded buffer under real
// producer/consumer load, partitioning properties, speedup/Amdahl math,
// and the multicore cost model.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <thread>

#include "common/error.hpp"
#include "parallel/speedup.hpp"
#include "parallel/sync.hpp"
#include "parallel/threads.hpp"

namespace cs31::parallel {
namespace {

TEST(Barrier, AllThreadsLeaveTogetherEachCycle) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 50;
  Barrier barrier(kThreads);
  std::atomic<int> in_phase{0};
  std::atomic<bool> violation{false};

  ThreadTeam team(kThreads, [&](std::size_t) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      in_phase.fetch_add(1);
      barrier.wait();
      // After the barrier, all kThreads arrivals of this round happened.
      if (in_phase.load() < static_cast<int>(kThreads * (r + 1))) violation = true;
      barrier.wait();  // keep rounds separated
    }
  });
  team.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(barrier.cycles(), 2 * kRounds);
}

TEST(Barrier, ExactlyOneSerialThreadPerCycle) {
  // PTHREAD_BARRIER_SERIAL_THREAD semantics: per cycle, exactly one of
  // the N waiters — not merely one on average — gets `true`. Count each
  // cycle separately so two in one cycle and zero in the next cannot
  // cancel out.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 20;
  Barrier barrier(kThreads);
  std::array<std::atomic<int>, kRounds> per_cycle{};
  ThreadTeam team(kThreads, [&](std::size_t) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      if (barrier.wait()) per_cycle[r].fetch_add(1);
    }
  });
  team.join();
  for (std::size_t r = 0; r < kRounds; ++r) {
    EXPECT_EQ(per_cycle[r].load(), 1) << "cycle " << r;
  }
  EXPECT_EQ(barrier.cycles(), kRounds);
}

TEST(Barrier, CyclesCountsEveryCompletedCycle) {
  Barrier solo(1);
  EXPECT_EQ(solo.cycles(), 0u);
  for (int i = 1; i <= 3; ++i) {
    EXPECT_TRUE(solo.wait()) << "sole waiter is always the serial thread";
    EXPECT_EQ(solo.cycles(), static_cast<std::uint64_t>(i));
  }

  Barrier pair(2);
  ThreadTeam team(2, [&](std::size_t) {
    for (int r = 0; r < 5; ++r) pair.wait();
  });
  team.join();
  EXPECT_EQ(pair.cycles(), 5u) << "a cycle completes once per full arrival set";
}

TEST(ThreadTeam, DoubleJoinIsIdempotent) {
  std::atomic<int> ran{0};
  ThreadTeam team(3, [&](std::size_t) { ran.fetch_add(1); });
  team.join();
  EXPECT_EQ(ran.load(), 3);
  EXPECT_NO_THROW(team.join()) << "second join is a no-op";
  EXPECT_EQ(team.size(), 3u);
  // The destructor's implicit join after an explicit one is also a no-op.
}

TEST(Barrier, CountOfOneNeverBlocks) {
  Barrier barrier(1);
  EXPECT_TRUE(barrier.wait());
  EXPECT_TRUE(barrier.wait());
  EXPECT_THROW(Barrier{0}, Error);
}

TEST(SharedCounter, SynchronizedModesAreExact) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPer = 20000;
  EXPECT_EQ(SharedCounter::run(SharedCounter::Mode::MutexPerIncrement, kThreads, kPer),
            kThreads * kPer);
  EXPECT_EQ(SharedCounter::run(SharedCounter::Mode::Atomic, kThreads, kPer),
            kThreads * kPer);
  EXPECT_EQ(SharedCounter::run(SharedCounter::Mode::LocalThenMerge, kThreads, kPer),
            kThreads * kPer);
}

TEST(SharedCounter, UnsynchronizedIsOnlyBoundedAbove) {
  // The data race can lose updates but can never invent them — and that
  // upper bound is the ONLY sound assertion. The result can fall below
  // per_thread (a stale read-modify-write can erase whole stretches of
  // other threads' work), and on a fast or single-core machine it can
  // coincidentally equal the exact count, so neither "usually loses"
  // nor any lower bound is testable without flaking. The deterministic
  // verdict lives in race_test.cpp: SharedCounter::run_traced flags the
  // race on every run, whatever the scheduler does.
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPer = 50000;
  const std::uint64_t result =
      SharedCounter::run(SharedCounter::Mode::Unsynchronized, kThreads, kPer);
  EXPECT_LE(result, kThreads * kPer);
  EXPECT_GE(result, 1u) << "the last increment's write always lands";
}

TEST(BoundedBuffer, FifoOrderSingleProducerSingleConsumer) {
  BoundedBuffer buffer(4);
  constexpr int kItems = 1000;
  std::vector<std::int64_t> received;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) buffer.put(i);
  });
  std::thread consumer([&] {
    for (int i = 0; i < kItems; ++i) received.push_back(buffer.get());
  });
  producer.join();
  consumer.join();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(received[i], i);
  // A tiny buffer under 1000 items must have blocked someone.
  EXPECT_GT(buffer.producer_blocks() + buffer.consumer_blocks(), 0u);
}

TEST(BoundedBuffer, ManyProducersManyConsumersConserveItems) {
  BoundedBuffer buffer(8);
  constexpr int kProducers = 3, kConsumers = 3, kPer = 500;
  std::atomic<std::int64_t> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPer; ++i) buffer.put(p * kPer + i);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPer; ++i) sum.fetch_add(buffer.get());
    });
  }
  for (std::thread& t : threads) t.join();
  const std::int64_t expected =
      (static_cast<std::int64_t>(kProducers * kPer) * (kProducers * kPer - 1)) / 2;
  EXPECT_EQ(sum.load(), expected);
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(BoundedBuffer, TryVariantsNeverBlock) {
  BoundedBuffer buffer(2);
  EXPECT_FALSE(buffer.try_get().has_value());
  EXPECT_TRUE(buffer.try_put(1));
  EXPECT_TRUE(buffer.try_put(2));
  EXPECT_FALSE(buffer.try_put(3)) << "full";
  EXPECT_EQ(buffer.try_get().value(), 1);
}

TEST(BoundedBuffer, CloseDrainsThenSignalsEnd) {
  BoundedBuffer buffer(4);
  buffer.put(10);
  buffer.put(20);
  buffer.close();
  EXPECT_EQ(buffer.get_until_closed().value(), 10);
  EXPECT_EQ(buffer.get_until_closed().value(), 20);
  EXPECT_FALSE(buffer.get_until_closed().has_value());
  EXPECT_THROW(buffer.put(30), Error);
  EXPECT_THROW(BoundedBuffer{0}, Error);
}

TEST(BoundedBuffer, CloseWakesBlockedConsumer) {
  BoundedBuffer buffer(2);
  std::optional<std::int64_t> result = 99;
  std::thread consumer([&] { result = buffer.get_until_closed(); });
  // Give the consumer a moment to block, then close.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  buffer.close();
  consumer.join();
  EXPECT_FALSE(result.has_value());
}

// Partitioning properties across a sweep of (n, parts).
class PartitionProperty
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(PartitionProperty, CoversExactlyOnceAndBalanced) {
  const auto [n, parts] = GetParam();
  const std::vector<Range> ranges = block_partition(n, parts);
  ASSERT_EQ(ranges.size(), parts);
  std::size_t covered = 0, min_size = n + 1, max_size = 0;
  std::size_t expected_begin = 0;
  for (const Range& r : ranges) {
    EXPECT_EQ(r.begin, expected_begin) << "contiguous";
    expected_begin = r.end;
    covered += r.size();
    min_size = std::min(min_size, r.size());
    max_size = std::max(max_size, r.size());
  }
  EXPECT_EQ(covered, n);
  EXPECT_EQ(ranges.back().end, n);
  EXPECT_LE(max_size - min_size, 1u) << "sizes differ by at most one";
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionProperty,
                         ::testing::Values(std::pair{0u, 1u}, std::pair{1u, 1u},
                                           std::pair{10u, 3u}, std::pair{16u, 16u},
                                           std::pair{5u, 8u}, std::pair{100u, 7u},
                                           std::pair{512u, 16u}));

TEST(Partition, GridSplitsWholeBands) {
  const auto horizontal = grid_partition(10, 6, 3, GridSplit::Horizontal);
  ASSERT_EQ(horizontal.size(), 3u);
  EXPECT_EQ(horizontal[0].rows, (Range{0, 4}));
  EXPECT_EQ(horizontal[0].cols, (Range{0, 6}));
  EXPECT_EQ(horizontal[2].rows, (Range{7, 10}));

  const auto vertical = grid_partition(10, 6, 3, GridSplit::Vertical);
  EXPECT_EQ(vertical[0].cols, (Range{0, 2}));
  EXPECT_EQ(vertical[0].rows, (Range{0, 10}));
}

TEST(ParallelFor, SumsViaRealThreads) {
  std::vector<int> data(10000, 1);
  std::atomic<long> total{0};
  parallel_for(data.size(), 4, [&](Range r, std::size_t) {
    long local = 0;
    for (std::size_t i = r.begin; i < r.end; ++i) local += data[i];
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), 10000);
  EXPECT_THROW(parallel_for(10, 0, [](Range, std::size_t) {}), Error);
}

TEST(Speedup, BasicFormulas) {
  EXPECT_DOUBLE_EQ(speedup(10.0, 2.0), 5.0);
  EXPECT_DOUBLE_EQ(efficiency(10.0, 2.0, 5), 1.0);
  EXPECT_THROW((void)speedup(1.0, 0.0), Error);
  EXPECT_THROW((void)efficiency(1.0, 1.0, 0), Error);
}

TEST(Amdahl, KnownValuesAndLimit) {
  EXPECT_DOUBLE_EQ(amdahl_speedup(0.0, 8), 8.0) << "embarrassingly parallel";
  EXPECT_DOUBLE_EQ(amdahl_speedup(1.0, 64), 1.0) << "fully serial";
  EXPECT_NEAR(amdahl_speedup(0.1, 16), 6.4, 0.01);
  EXPECT_NEAR(amdahl_speedup(0.05, 16), 9.1429, 0.001);
  EXPECT_DOUBLE_EQ(amdahl_limit(0.1), 10.0);
  EXPECT_THROW((void)amdahl_speedup(1.5, 2), Error);
  EXPECT_THROW((void)amdahl_limit(0.0), Error);
}

TEST(Amdahl, MonotoneInPAndBoundedByLimit) {
  for (const double f : {0.01, 0.1, 0.3}) {
    double prev = 0;
    for (unsigned p = 1; p <= 64; p *= 2) {
      const double s = amdahl_speedup(f, p);
      EXPECT_GT(s, prev);
      EXPECT_LT(s, amdahl_limit(f));
      prev = s;
    }
  }
}

TEST(Gustafson, ScaledSpeedupExceedsAmdahl) {
  EXPECT_DOUBLE_EQ(gustafson_speedup(0.0, 16), 16.0);
  EXPECT_GT(gustafson_speedup(0.1, 16), amdahl_speedup(0.1, 16));
}

TEST(MulticoreModel, IdealWorkloadScalesLinearly) {
  WorkloadModel ideal;
  ideal.total_work = 1 << 20;
  for (unsigned p = 1; p <= 16; p *= 2) {
    EXPECT_NEAR(modeled_speedup(ideal, p), p, 0.01) << p;
  }
}

TEST(MulticoreModel, ContentionAndBarriersBendTheCurve) {
  WorkloadModel model;
  model.total_work = 1 << 20;
  model.rounds = 100;
  model.barrier_cost = 50;
  model.critical_section = 5;
  model.contention_factor = 0.005;
  double prev_eff = 2.0;
  for (unsigned p = 2; p <= 16; p *= 2) {
    const double s = modeled_speedup(model, p);
    const double eff = s / p;
    EXPECT_LT(s, static_cast<double>(p)) << "sub-linear with overheads";
    EXPECT_LT(eff, prev_eff) << "efficiency decays with threads";
    prev_eff = eff;
  }
  // Still near-linear at 16 threads for a Life-like workload (E3's claim).
  EXPECT_GT(modeled_speedup(model, 16), 10.0);
}

TEST(MulticoreModel, SerialFractionMatchesAmdahlShape) {
  WorkloadModel model;
  model.total_work = 1000000;
  model.serial_work = 100000;  // ~9% serial
  const double f = 0.1 / 1.1;  // serial share of total on one thread
  for (unsigned p : {2u, 4u, 8u}) {
    const double modeled = modeled_speedup(model, p);
    const double predicted = amdahl_speedup(f, p);
    EXPECT_NEAR(modeled, predicted, predicted * 0.1) << p;
  }
}

TEST(MulticoreModel, Validation) {
  WorkloadModel bad;
  bad.rounds = 0;
  EXPECT_THROW((void)modeled_time(bad, 1), Error);
  WorkloadModel ok;
  ok.total_work = 10;
  EXPECT_THROW((void)modeled_time(ok, 0), Error);
}

}  // namespace
}  // namespace cs31::parallel
