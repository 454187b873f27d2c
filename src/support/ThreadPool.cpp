//===- support/ThreadPool.cpp - Fixed parallel-for worker pool ------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Env.h"

#include <algorithm>
#include <unistd.h>

using namespace pbt;

namespace {
/// Set while a thread executes batch bodies, so nested parallelFor calls
/// degrade to inline loops instead of deadlocking on the pool.
thread_local bool InsideBatch = false;
} // namespace

ThreadPool::ThreadPool(unsigned ThreadCount) : OwnerPid(::getpid()) {
  if (ThreadCount == 0) {
    int64_t FromEnv = envInt("PBT_THREADS", 0);
    if (FromEnv > 0)
      ThreadCount = static_cast<unsigned>(std::min<int64_t>(FromEnv, 256));
    else
      ThreadCount = std::max(1u, std::thread::hardware_concurrency());
  }
  Workers.reserve(ThreadCount - 1);
  for (unsigned I = 1; I < ThreadCount; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

ThreadPool &ThreadPool::global() {
  static ThreadPool Pool;
  return Pool;
}

void ThreadPool::workerLoop() {
  uint64_t SeenGeneration = 0;
  while (true) {
    std::shared_ptr<Batch> B;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkCv.wait(Lock, [&] {
        return Stopping || Generation != SeenGeneration;
      });
      if (Stopping)
        return;
      SeenGeneration = Generation;
      B = Current; // Snapshot under the lock; immutable afterwards.
    }
    if (B)
      runBatch(*B);
  }
}

void ThreadPool::runBatch(Batch &B) {
  InsideBatch = true;
  size_t Done = 0;
  while (true) {
    size_t I = B.Next.fetch_add(1, std::memory_order_relaxed);
    if (I >= B.Size)
      break;
    try {
      (*B.Body)(I);
    } catch (...) {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (!B.FirstError)
        B.FirstError = std::current_exception();
    }
    ++Done;
  }
  InsideBatch = false;
  if (Done > 0 &&
      B.Completed.fetch_add(Done, std::memory_order_acq_rel) + Done ==
          B.Size) {
    std::lock_guard<std::mutex> Lock(Mutex);
    DoneCv.notify_all();
  }
}

void ThreadPool::parallelFor(size_t N,
                             const std::function<void(size_t)> &Body) {
  if (N == 0)
    return;
  if (Workers.empty() || InsideBatch || N == 1 || ::getpid() != OwnerPid) {
    // Same exception contract as the pooled path: drain the whole
    // batch, then rethrow the first error.
    std::exception_ptr FirstError;
    for (size_t I = 0; I < N; ++I) {
      try {
        Body(I);
      } catch (...) {
        if (!FirstError)
          FirstError = std::current_exception();
      }
    }
    if (FirstError)
      std::rethrow_exception(FirstError);
    return;
  }

  auto B = std::make_shared<Batch>();
  B->Body = &Body;
  B->Size = N;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Current = B;
    ++Generation;
  }
  WorkCv.notify_all();

  runBatch(*B); // The caller claims indices too.

  std::unique_lock<std::mutex> Lock(Mutex);
  DoneCv.wait(Lock, [&] {
    return B->Completed.load(std::memory_order_acquire) == B->Size;
  });
  if (B->FirstError)
    std::rethrow_exception(B->FirstError);
}
