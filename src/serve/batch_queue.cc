#include "serve/batch_queue.h"

#include <utility>

#include "core/log.h"

namespace promptem::serve {

BatchQueue::BatchQueue(Config config) : config_(config) {
  PROMPTEM_CHECK(config_.capacity > 0);
  PROMPTEM_CHECK(config_.max_batch > 0);
}

bool BatchQueue::TryEnqueue(PendingRequest request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || queue_.size() >= config_.capacity) {
      ++stats_.shed;
      return false;
    }
    queue_.push_back(std::move(request));
    ++stats_.enqueued;
  }
  ready_.notify_one();
  return true;
}

std::vector<PendingRequest> BatchQueue::DequeueBatch() {
  std::unique_lock<std::mutex> lock(mu_);
  ready_.wait(lock, [this] { return !queue_.empty() || closed_; });
  if (queue_.empty()) return {};  // closed and drained

  std::vector<PendingRequest> batch;
  const size_t take = std::min(queue_.size(), config_.max_batch);
  batch.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  ++stats_.batches;
  stats_.dequeued += batch.size();
  return batch;
}

void BatchQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  ready_.notify_all();
}

size_t BatchQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

bool BatchQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

BatchQueue::Stats BatchQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace promptem::serve
