#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

namespace most {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  std::mutex mu;
  std::condition_variable cv;
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      if (count.fetch_add(1) + 1 == 100) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return count.load() == 100; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ZeroSizesPoolToHardware) {
  // A zero-sized pool spawns hardware_concurrency workers (at least one),
  // never zero.
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(),
            std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
    pool.Shutdown();  // Must execute everything already queued.
    EXPECT_EQ(count.load(), 64);
    pool.Shutdown();  // Idempotent.
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, SubmitAfterShutdownRunsInline) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::thread::id ran_on;
  pool.Submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPoolTest, DestructorJoinsWithPendingWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 256; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
    // Destructor must drain and join without losing tasks.
  }
  EXPECT_EQ(count.load(), 256);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(&pool, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsSeriallyInOrder) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 100, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForTest, SingleWorkerPoolRunsSeriallyInOrder) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  ParallelFor(&pool, 50, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 50u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForTest, ZeroAndTinyIterationCounts) {
  ThreadPool pool(4);
  int ran = 0;
  ParallelFor(&pool, 0, [&](size_t) { ++ran; });
  EXPECT_EQ(ran, 0);
  std::atomic<int> one{0};
  ParallelFor(&pool, 1, [&](size_t) { one.fetch_add(1); });
  EXPECT_EQ(one.load(), 1);
  std::atomic<int> few{0};
  ParallelFor(&pool, 3, [&](size_t) { few.fetch_add(1); });
  EXPECT_EQ(few.load(), 3);
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  // Inner loops run from inside pool tasks; the caller-participation
  // design must make progress even with every worker busy.
  ThreadPool pool(2);
  std::atomic<size_t> total{0};
  ParallelFor(&pool, 8, [&](size_t) {
    ParallelFor(&pool, 32, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8u * 32u);
}

TEST(ParallelForTest, ConcurrentLoopsOnOnePool) {
  ThreadPool pool(4);
  std::atomic<size_t> a{0}, b{0};
  std::thread t1([&] { ParallelFor(&pool, 5000, [&](size_t) { a++; }); });
  std::thread t2([&] { ParallelFor(&pool, 5000, [&](size_t) { b++; }); });
  t1.join();
  t2.join();
  EXPECT_EQ(a.load(), 5000u);
  EXPECT_EQ(b.load(), 5000u);
}

TEST(ParallelForTest, ResultsIndependentOfThreadCount) {
  // The parallel evaluator's determinism rests on this shape: workers fill
  // disjoint slots, the caller merges in index order.
  constexpr size_t kN = 1024;
  auto run = [&](ThreadPool* pool) {
    std::vector<uint64_t> out(kN);
    ParallelFor(pool, kN, [&](size_t i) { out[i] = i * i + 7; });
    return out;
  };
  std::vector<uint64_t> serial = run(nullptr);
  for (size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(run(&pool), serial) << threads << " threads";
  }
}

}  // namespace
}  // namespace most
