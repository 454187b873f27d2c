//===- tests/threadpool_test.cpp - worker-pool semantics ------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <numeric>
#include <stdexcept>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace pbt;

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.size(), 4u);
  std::vector<std::atomic<int>> Hits(257);
  for (auto &H : Hits)
    H.store(0);
  Pool.parallelFor(Hits.size(), [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ResultsOrderedByIndexNotCompletion) {
  ThreadPool Pool(3);
  std::vector<int> Out(64, -1);
  Pool.parallelFor(Out.size(), [&](size_t I) {
    // Early indices do more work, so completion order inverts.
    volatile unsigned Spin = (I < 8) ? 200000u : 10u;
    while (Spin > 0)
      --Spin;
    Out[I] = static_cast<int>(I);
  });
  for (size_t I = 0; I < Out.size(); ++I)
    EXPECT_EQ(Out[I], static_cast<int>(I));
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.size(), 1u);
  std::vector<int> Order;
  Pool.parallelFor(5, [&](size_t I) { Order.push_back(static_cast<int>(I)); });
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, NestedCallsRunInlineWithoutDeadlock) {
  ThreadPool Pool(2);
  std::atomic<int> Total{0};
  Pool.parallelFor(4, [&](size_t) {
    Pool.parallelFor(4, [&](size_t) { Total.fetch_add(1); });
  });
  EXPECT_EQ(Total.load(), 16);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool Pool(4);
  std::atomic<int> Ran{0};
  EXPECT_THROW(
      Pool.parallelFor(32,
                       [&](size_t I) {
                         Ran.fetch_add(1);
                         if (I == 7)
                           throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  EXPECT_EQ(Ran.load(), 32) << "batch drains even after a throw";
}

TEST(ThreadPool, SerialPoolDrainsBatchOnException) {
  // Same contract as the pooled path: every index runs, then the first
  // error is rethrown — side effects must not depend on pool size.
  ThreadPool Pool(1);
  std::atomic<int> Ran{0};
  EXPECT_THROW(
      Pool.parallelFor(16,
                       [&](size_t I) {
                         Ran.fetch_add(1);
                         if (I == 3)
                           throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  EXPECT_EQ(Ran.load(), 16);
}

TEST(ThreadPool, ExceptionFromWorkerThreadReachesCaller) {
  // Force the throwing index onto a WORKER thread (not the caller,
  // which also claims indices): the body throws only on threads other
  // than the caller's, and the caller is delayed so workers pick up
  // work first. The cross-thread rethrow is what the driver's guard
  // relies on to turn a crashing parallel preparation into a recorded
  // failure.
  ThreadPool Pool(4);
  std::thread::id Caller = std::this_thread::get_id();
  std::atomic<int> WorkerRan{0};
  EXPECT_THROW(
      Pool.parallelFor(64,
                       [&](size_t) {
                         if (std::this_thread::get_id() != Caller) {
                           WorkerRan.fetch_add(1);
                           throw std::runtime_error("worker boom");
                         }
                         std::this_thread::sleep_for(
                             std::chrono::milliseconds(1));
                       }),
      std::runtime_error);
  EXPECT_GT(WorkerRan.load(), 0) << "a worker thread must have thrown";
}

TEST(ThreadPool, RemainsUsableAfterException) {
  // A thrown batch must not poison the pool: the next batches run
  // normally and the error state resets (no stale rethrow).
  ThreadPool Pool(4);
  for (int Round = 0; Round < 3; ++Round) {
    EXPECT_THROW(Pool.parallelFor(16,
                                  [&](size_t I) {
                                    if (I == 5)
                                      throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    std::atomic<int> Total{0};
    Pool.parallelFor(32, [&](size_t) { Total.fetch_add(1); });
    EXPECT_EQ(Total.load(), 32) << "round " << Round;
  }
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool Pool(4);
  for (int Round = 0; Round < 50; ++Round) {
    std::vector<int> Out(17, 0);
    Pool.parallelFor(Out.size(), [&](size_t I) {
      Out[I] = Round + static_cast<int>(I);
    });
    for (size_t I = 0; I < Out.size(); ++I)
      EXPECT_EQ(Out[I], Round + static_cast<int>(I));
  }
}

TEST(ThreadPool, ZeroItemsIsANoOp) {
  ThreadPool Pool(2);
  bool Called = false;
  Pool.parallelFor(0, [&](size_t) { Called = true; });
  EXPECT_FALSE(Called);
}

// A process forked after the pool started its workers inherits none of
// them, and the pool's mutex and condition variables may carry the
// parent's waiters. parallelFor in the child must run inline on the
// calling thread without touching that state, or it can hang.
TEST(ThreadPool, ForkedChildRunsInline) {
  ThreadPool Pool(4);
  Pool.parallelFor(64, [](size_t) {}); // Workers are live and parked.
  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    std::thread::id Caller = std::this_thread::get_id();
    bool Inline = true;
    size_t Ran = 0;
    Pool.parallelFor(16, [&](size_t) {
      Inline = Inline && std::this_thread::get_id() == Caller;
      ++Ran;
    });
    ::_exit(Inline && Ran == 16 ? 0 : 1);
  }
  // Bounded wait: a child wedged in the inherited pool state fails the
  // test instead of hanging the suite.
  int Status = 0;
  pid_t Done = 0;
  for (int Tick = 0; Tick < 1000 && Done == 0; ++Tick) {
    Done = ::waitpid(Pid, &Status, WNOHANG);
    if (Done == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (Done == 0) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, &Status, 0);
    FAIL() << "forked child wedged in parallelFor";
  }
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0) << "child must run every index inline";
}
