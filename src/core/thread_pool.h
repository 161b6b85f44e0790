#ifndef PROMPTEM_CORE_THREAD_POOL_H_
#define PROMPTEM_CORE_THREAD_POOL_H_

#include <cstdint>
#include <functional>

namespace promptem::core {

/// Chunk-level work function for ParallelFor: processes [begin, end).
using RangeFn = std::function<void(int64_t begin, int64_t end)>;

/// Number of execution lanes (worker threads + the calling thread). Sized
/// on first use from the PROMPTEM_NUM_THREADS environment variable, falling
/// back to std::thread::hardware_concurrency(). Always >= 1.
int GetNumThreads();

/// Resizes the pool to `n` lanes (n <= 0 restores the environment /
/// hardware default). Must not be called from inside a ParallelFor body.
void SetNumThreads(int n);

/// Splits [begin, end) into fixed chunks of at most `grain` indices
/// (grain <= 0 means one chunk) and runs `fn(chunk_begin, chunk_end)` for
/// each. Blocks until every chunk has finished.
///
/// Determinism contract: the chunk decomposition depends only on (begin,
/// end, grain) — never on the pool size — and chunk c is statically
/// assigned to lane c % lanes, each lane running its chunks in increasing
/// order. Callers that reduce across chunks must accumulate into per-chunk
/// buffers and merge them in chunk order; results are then bitwise
/// identical for every PROMPTEM_NUM_THREADS setting.
///
/// With one lane, or when called from inside another ParallelFor body
/// (nested parallelism), every chunk runs inline on the calling thread.
/// The first exception thrown by a chunk (lowest chunk index wins) is
/// rethrown on the calling thread after all lanes finish.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const RangeFn& fn);

}  // namespace promptem::core

#endif  // PROMPTEM_CORE_THREAD_POOL_H_
