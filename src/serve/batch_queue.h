#ifndef PROMPTEM_SERVE_BATCH_QUEUE_H_
#define PROMPTEM_SERVE_BATCH_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "serve/protocol.h"

namespace promptem::serve {

/// One admitted request waiting for (or riding in) a scoring sweep.
struct PendingRequest {
  MatchRequest request;
  /// Absolute expiry, meaningful when has_deadline. Derived from
  /// deadline_ms at admission so queue time counts against the budget.
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
  std::chrono::steady_clock::time_point enqueue_time{};
  /// Called exactly once, from whichever thread resolves the request
  /// (scorer thread for scored/expired work, drain path for shutdown).
  /// Must not throw; must tolerate a dead client.
  std::function<void(MatchResponse)> complete;
};

/// The admission-control and coalescing point between transport threads
/// (producers: one per connection) and the scorer loop (consumer).
///
/// Bounded: TryEnqueue refuses — never blocks — when `capacity` requests
/// are waiting, so a traffic spike degrades into explicit `overloaded`
/// responses instead of unbounded memory growth and collapsing latency
/// (shed early, shed loudly). DequeueBatch blocks for the first request
/// only, then greedily drains up to `max_batch` more: under load, the
/// requests that accumulated while the scorer was busy form the next
/// batch — natural coalescing with zero added idle latency.
class BatchQueue {
 public:
  struct Config {
    size_t capacity = 256;  ///< max requests waiting (not yet dequeued)
    size_t max_batch = 64;  ///< max requests per DequeueBatch
  };

  struct Stats {
    uint64_t enqueued = 0;
    uint64_t shed = 0;      ///< refused by admission control
    uint64_t batches = 0;   ///< non-empty DequeueBatch returns
    uint64_t dequeued = 0;  ///< requests handed to the scorer
  };

  explicit BatchQueue(Config config);

  /// False = shed (queue full) or closed; the caller owns the response.
  bool TryEnqueue(PendingRequest request);

  /// Blocks until at least one request is available (or the queue is
  /// closed and empty — then returns an empty batch, the consumer's
  /// signal to exit). After Close, keeps returning queued work until the
  /// backlog drains: shutdown finishes admitted requests.
  std::vector<PendingRequest> DequeueBatch();

  /// Stops admission; wakes blocked consumers once the backlog drains.
  void Close();

  size_t depth() const;
  bool closed() const;
  Stats stats() const;

 private:
  const Config config_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<PendingRequest> queue_;
  bool closed_ = false;
  Stats stats_;
};

}  // namespace promptem::serve

#endif  // PROMPTEM_SERVE_BATCH_QUEUE_H_
