#ifndef PROMPTEM_BENCHMARK_TRACE_H_
#define PROMPTEM_BENCHMARK_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace promptem::bench {

/// Layer boundaries the benchmark times from outside the program: each
/// span wraps one call into a module's public API (or, for the serve
/// layers, one step of the traced harness built from those APIs).
enum class Layer : uint8_t {
  kServeReadFrame,
  kServeParse,
  kServeQueueWait,
  kServeHandleBatch,
  kServeSerialize,
  kServeWriteFrame,
  /// Per request: from its batch's dequeue until its own completion
  /// starts (scoring plus the completions ahead of it). Attributes a
  /// request's server-side latency; not reported as a layer.
  kServeInBatch,
  kDataBlockBuild,
  kDataNextChunk,
  kPromptemEncode,
  kPromptemScore,
  kPipelineFold,
  kPipelineApplyDelta,
  kTrainSetup,
  kCount,
};

const char* LayerName(Layer layer);
/// True for the layers reported as per-layer metrics.
bool LayerReported(Layer layer);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t req = 0;     ///< request / unit id; 0 = not request-scoped
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = top level
  Layer layer = Layer::kCount;
};

/// In-memory span recorder. Spans are appended under a mutex (the rates
/// traced here are thousands per second, not millions) and written out as
/// JSONL when the run ends. A disabled tracer records nothing, so the
/// untraced runs pay one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Reserves a span id, for a span whose children end before it does.
  uint32_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a finished span; `id` 0 draws a fresh one. Returns the id.
  uint32_t Record(Layer layer, int64_t start_ns, int64_t end_ns,
                  uint32_t parent = 0, uint64_t req = 0, uint32_t id = 0);

  /// A wall-time window the spans of unit `req` must account for; the
  /// summarizer's coverage is the share of all windows covered by spans.
  void AddWindow(int64_t start_ns, int64_t end_ns, uint64_t req);

  /// The wall time the traced work took; tracing overhead is its share.
  void SetTracedWall(double seconds) { traced_wall_s_ = seconds; }
  double traced_wall_s() const { return traced_wall_s_; }

  std::vector<Span> spans() const;

  struct Window {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t req = 0;
  };
  std::vector<Window> windows() const;

  /// One JSON object per span: name, start_ns, end_ns, id, parent, req.
  bool WriteJsonl(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint32_t> next_id_{1};
  double traced_wall_s_ = 0.0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<Window> windows_;
};

/// Times the enclosing scope as one span on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer, uint32_t parent = 0,
             uint64_t req = 0)
      : tracer_(tracer), layer_(layer), parent_(parent), req_(req) {
    if (tracer_->enabled()) {
      id_ = tracer_->NewId();
      start_ns_ = NowNs();
    }
  }
  ~ScopedSpan() {
    if (tracer_->enabled()) {
      tracer_->Record(layer_, start_ns_, NowNs(), parent_, req_, id_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  Layer layer_;
  uint32_t parent_;
  uint64_t req_;
  uint32_t id_ = 0;
  int64_t start_ns_ = 0;
};

/// Per-layer aggregates: self time is a span's duration minus the time
/// its child spans cover; percentiles are over per-call self times and
/// read 0 unless at least ten calls lie beyond them.
struct TraceSummary {
  struct LayerStats {
    uint64_t calls = 0;
    double self_ms = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
  };
  std::array<LayerStats, static_cast<size_t>(Layer::kCount)> layers{};
  /// Covered share of the windows (1 = every window fully attributed).
  double coverage = 0.0;
  /// Estimated recording cost as a share of the traced wall time.
  double overhead = 0.0;
  size_t spans = 0;
};

TraceSummary Summarize(const Tracer& tracer);

}  // namespace promptem::bench

#endif  // PROMPTEM_BENCHMARK_TRACE_H_
