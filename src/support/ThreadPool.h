//===- support/ThreadPool.h - Fixed parallel-for worker pool ---*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed worker pool exposing a single blocking parallelFor primitive,
/// used to run embarrassingly parallel experiment work (isolated-runtime
/// measurement, independent workload replays) concurrently. There is
/// deliberately no work stealing and no futures: tasks are claimed from
/// a shared atomic index and each writes results keyed by its own index,
/// so outputs are ordered by input — never by completion — and results
/// are bit-identical to the serial loop regardless of pool size.
///
/// Pool size defaults to the hardware concurrency and can be pinned with
/// the `PBT_THREADS` environment variable (1 forces fully serial
/// execution on the calling thread).
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SUPPORT_THREADPOOL_H
#define PBT_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pbt {

/// Fixed pool of worker threads driving blocking parallel-for batches.
class ThreadPool {
public:
  /// \p ThreadCount total threads including the caller; 0 picks
  /// PBT_THREADS or the hardware concurrency.
  explicit ThreadPool(unsigned ThreadCount = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total threads participating in a batch (workers + calling thread).
  unsigned size() const { return static_cast<unsigned>(Workers.size()) + 1; }

  /// Runs Body(I) for every I in [0, N), distributing indices over the
  /// pool; returns when all N calls finished. The calling thread
  /// participates. Reentrant calls (from inside a Body), single-
  /// threaded pools, and calls in a process forked after the pool was
  /// created (which inherits no worker threads) run inline. The first
  /// exception thrown by a Body is rethrown here after the batch drains.
  void parallelFor(size_t N, const std::function<void(size_t)> &Body);

  /// The process-wide pool, created on first use.
  static ThreadPool &global();

private:
  /// State of one parallelFor batch. Body/Size are immutable after
  /// publication; a worker that snapshots a stale batch simply finds
  /// its indices exhausted and goes back to sleep, so generations can
  /// never contaminate each other.
  struct Batch {
    const std::function<void(size_t)> *Body = nullptr;
    size_t Size = 0;
    std::atomic<size_t> Next{0};
    std::atomic<size_t> Completed{0};
    std::exception_ptr FirstError; ///< Guarded by the pool mutex.
  };

  void workerLoop();
  void runBatch(Batch &B);

  std::vector<std::thread> Workers;
  /// The process that started the workers; a fork() child sees a
  /// different pid and must not touch the inherited mutex.
  long OwnerPid = 0;
  std::mutex Mutex;
  std::condition_variable WorkCv;
  std::condition_variable DoneCv;
  std::shared_ptr<Batch> Current; ///< Guarded by the pool mutex.
  uint64_t Generation = 0;
  bool Stopping = false;
};

} // namespace pbt

#endif // PBT_SUPPORT_THREADPOOL_H
