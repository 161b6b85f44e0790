#include "core/thread_pool.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/status.h"

namespace promptem::core {

namespace {

thread_local bool t_in_parallel_region = false;

int DefaultNumThreads() {
  if (const char* env = std::getenv("PROMPTEM_NUM_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<int>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Persistent fixed-size pool. A ParallelFor publishes one job; lane 0 is
/// the calling thread, lanes 1..N-1 are the pool workers. Chunks are
/// statically assigned (chunk c -> lane c % N), so scheduling never
/// depends on timing and reductions merged in chunk order are bitwise
/// reproducible.
class ThreadPool {
 public:
  static ThreadPool& Get() {
    static ThreadPool pool;
    return pool;
  }

  int lanes() {
    std::lock_guard<std::mutex> lock(mu_);
    return lanes_;
  }

  void Resize(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    PROMPTEM_CHECK_MSG(!t_in_parallel_region,
                       "SetNumThreads inside ParallelFor");
    const int target = n <= 0 ? DefaultNumThreads() : n;
    if (target == lanes_) return;
    StopWorkersLocked(&lock);
    lanes_ = target;
    StartWorkersLocked();
  }

  void Run(int64_t begin, int64_t end, int64_t grain, const RangeFn& fn) {
    if (end <= begin) return;
    if (grain <= 0) grain = end - begin;
    const int64_t chunks = (end - begin + grain - 1) / grain;

    // Inline when nested inside a worker chunk, when the pool has one
    // lane, or when there is only one chunk anyway.
    if (t_in_parallel_region || chunks == 1) {
      RunLaneInline(begin, end, grain, chunks, fn, /*lane=*/0, /*lanes=*/1);
      return;
    }

    std::unique_lock<std::mutex> lock(mu_);
    if (lanes_ == 1) {
      lock.unlock();
      RunLaneInline(begin, end, grain, chunks, fn, 0, 1);
      return;
    }
    // One job at a time: library callers issue top-level ParallelFors from
    // a single thread; a second concurrent caller simply runs inline.
    if (job_active_) {
      lock.unlock();
      RunLaneInline(begin, end, grain, chunks, fn, 0, 1);
      return;
    }
    job_active_ = true;
    job_fn_ = &fn;
    job_begin_ = begin;
    job_end_ = end;
    job_grain_ = grain;
    job_chunks_ = chunks;
    job_lanes_ = lanes_;
    errors_.assign(static_cast<size_t>(lanes_), Error{});
    pending_workers_ = lanes_ - 1;
    ++job_id_;
    lock.unlock();
    work_cv_.notify_all();

    // The caller is lane 0.
    RunLane(0);

    lock.lock();
    done_cv_.wait(lock, [this] { return pending_workers_ == 0; });
    job_active_ = false;
    job_fn_ = nullptr;
    // Rethrow the error from the lowest failing chunk.
    Error* first = nullptr;
    for (auto& e : errors_) {
      if (e.eptr && (first == nullptr || e.chunk < first->chunk)) first = &e;
    }
    if (first != nullptr) {
      std::exception_ptr eptr = first->eptr;
      lock.unlock();
      std::rethrow_exception(eptr);
    }
  }

 private:
  struct Error {
    std::exception_ptr eptr;
    int64_t chunk = 0;
  };

  ThreadPool() : lanes_(DefaultNumThreads()) { StartWorkersLocked(); }

  ~ThreadPool() {
    std::unique_lock<std::mutex> lock(mu_);
    StopWorkersLocked(&lock);
  }

  void StartWorkersLocked() {
    shutdown_ = false;
    const int workers = lanes_ - 1;
    threads_.reserve(static_cast<size_t>(workers));
    // Workers spawned after a Resize must not mistake the previous pool
    // generation's last job for a fresh one.
    const uint64_t current_job = job_id_;
    for (int w = 0; w < workers; ++w) {
      threads_.emplace_back(
          [this, w, current_job] { WorkerLoop(w + 1, current_job); });
    }
  }

  void StopWorkersLocked(std::unique_lock<std::mutex>* lock) {
    shutdown_ = true;
    work_cv_.notify_all();
    std::vector<std::thread> joining = std::move(threads_);
    threads_.clear();
    lock->unlock();
    for (auto& t : joining) t.join();
    lock->lock();
  }

  void WorkerLoop(int lane, uint64_t seen_job) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this, seen_job] {
          return shutdown_ || job_id_ != seen_job;
        });
        if (shutdown_) return;
        seen_job = job_id_;
        if (lane >= job_lanes_) {
          // Lane beyond this job's width: nothing to do, report done.
          FinishWorkerLocked();
          continue;
        }
      }
      RunLane(lane);
      {
        std::lock_guard<std::mutex> lock(mu_);
        FinishWorkerLocked();
      }
    }
  }

  void FinishWorkerLocked() {
    if (--pending_workers_ == 0) done_cv_.notify_all();
  }

  /// Runs every chunk assigned to `lane` (chunk c where c % lanes == lane),
  /// in increasing chunk order.
  void RunLane(int lane) {
    t_in_parallel_region = true;
    for (int64_t c = lane; c < job_chunks_; c += job_lanes_) {
      const int64_t b = job_begin_ + c * job_grain_;
      const int64_t e = std::min(job_end_, b + job_grain_);
      try {
        (*job_fn_)(b, e);
      } catch (...) {
        Error& slot = errors_[static_cast<size_t>(lane)];
        if (!slot.eptr) {
          slot.eptr = std::current_exception();
          slot.chunk = c;
        }
      }
    }
    t_in_parallel_region = false;
  }

  /// Inline execution path (one lane): runs chunks 0..chunks-1 in order on
  /// the calling thread, preserving the chunked call pattern so callers'
  /// per-chunk reductions behave identically to the pooled path.
  static void RunLaneInline(int64_t begin, int64_t end, int64_t grain,
                            int64_t chunks, const RangeFn& fn, int lane,
                            int lanes) {
    const bool was_nested = t_in_parallel_region;
    t_in_parallel_region = true;
    std::exception_ptr eptr;
    for (int64_t c = lane; c < chunks; c += lanes) {
      const int64_t b = begin + c * grain;
      const int64_t e = std::min(end, b + grain);
      try {
        fn(b, e);
      } catch (...) {
        if (!eptr) eptr = std::current_exception();
      }
    }
    t_in_parallel_region = was_nested;
    if (eptr) std::rethrow_exception(eptr);
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  int lanes_ = 1;
  bool shutdown_ = false;

  // Current job (guarded by mu_ for publication; read by workers after the
  // job_id_ handshake).
  bool job_active_ = false;
  uint64_t job_id_ = 0;
  const RangeFn* job_fn_ = nullptr;
  int64_t job_begin_ = 0;
  int64_t job_end_ = 0;
  int64_t job_grain_ = 1;
  int64_t job_chunks_ = 0;
  int job_lanes_ = 1;
  int pending_workers_ = 0;
  std::vector<Error> errors_;
};

}  // namespace

int GetNumThreads() { return ThreadPool::Get().lanes(); }

void SetNumThreads(int n) { ThreadPool::Get().Resize(n); }

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const RangeFn& fn) {
  ThreadPool::Get().Run(begin, end, grain, fn);
}

}  // namespace promptem::core
