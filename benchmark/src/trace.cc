#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace promptem::bench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kServeReadFrame:
      return "serve.read_frame";
    case Layer::kServeParse:
      return "serve.parse";
    case Layer::kServeQueueWait:
      return "serve.queue_wait";
    case Layer::kServeHandleBatch:
      return "serve.handle_batch";
    case Layer::kServeSerialize:
      return "serve.serialize";
    case Layer::kServeWriteFrame:
      return "serve.write_frame";
    case Layer::kServeInBatch:
      return "serve.in_batch";
    case Layer::kDataBlockBuild:
      return "data.block_build";
    case Layer::kDataNextChunk:
      return "data.next_chunk";
    case Layer::kPromptemEncode:
      return "promptem.encode";
    case Layer::kPromptemScore:
      return "promptem.score";
    case Layer::kPipelineFold:
      return "pipeline.fold";
    case Layer::kPipelineApplyDelta:
      return "pipeline.apply_delta";
    case Layer::kTrainSetup:
      return "train.setup";
    case Layer::kCount:
      break;
  }
  return "unknown";
}

bool LayerReported(Layer layer) {
  return layer != Layer::kServeInBatch && layer != Layer::kCount;
}

uint32_t Tracer::Record(Layer layer, int64_t start_ns, int64_t end_ns,
                        uint32_t parent, uint64_t req, uint32_t id) {
  if (!enabled_) return 0;
  if (id == 0) id = NewId();
  Span span;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.req = req;
  span.id = id;
  span.parent = parent;
  span.layer = layer;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return id;
}

void Tracer::AddWindow(int64_t start_ns, int64_t end_ns, uint64_t req) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  windows_.push_back({start_ns, end_ns, req});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<Tracer::Window> Tracer::windows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& span : spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%u,\"parent\":%u,\"req\":%llu}\n",
                 LayerName(span.layer),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.id, span.parent,
                 static_cast<unsigned long long>(span.req));
  }
  return std::fclose(f) == 0;
}

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredWithin(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (const auto& [start, end] : intervals) {
    const int64_t s = std::max(start, cursor);
    const int64_t e = std::min(end, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

/// Mean cost of one ScopedSpan on this machine, in nanoseconds.
double SpanCostNs() {
  Tracer scratch(/*enabled=*/true);
  constexpr int kSpans = 20000;
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(&scratch, Layer::kPipelineFold);
  }
  return static_cast<double>(NowNs() - start) / kSpans;
}

}  // namespace

TraceSummary Summarize(const Tracer& tracer) {
  TraceSummary summary;
  const std::vector<Span> spans = tracer.spans();
  summary.spans = spans.size();

  std::unordered_map<uint32_t, int64_t> child_ns;
  for (const Span& span : spans) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::array<std::vector<double>, static_cast<size_t>(Layer::kCount)> self_us;
  for (const Span& span : spans) {
    int64_t self = span.end_ns - span.start_ns;
    if (const auto it = child_ns.find(span.id); it != child_ns.end()) {
      self -= it->second;
    }
    self = std::max<int64_t>(self, 0);
    auto& stats = summary.layers[static_cast<size_t>(span.layer)];
    ++stats.calls;
    stats.self_ms += static_cast<double>(self) * 1e-6;
    self_us[static_cast<size_t>(span.layer)].push_back(
        static_cast<double>(self) * 1e-3);
  }
  for (size_t l = 0; l < self_us.size(); ++l) {
    const auto& sample = self_us[l];
    if (PercentileSupported(sample.size(), 0.50)) {
      summary.layers[l].p50_us = Percentile(sample, 0.50);
    }
    if (PercentileSupported(sample.size(), 0.99)) {
      summary.layers[l].p99_us = Percentile(sample, 0.99);
    }
  }

  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      by_req;
  for (const Span& span : spans) {
    by_req[span.req].emplace_back(span.start_ns, span.end_ns);
  }
  int64_t window_ns = 0;
  int64_t covered_ns = 0;
  for (const Tracer::Window& window : tracer.windows()) {
    window_ns += window.end_ns - window.start_ns;
    if (const auto it = by_req.find(window.req); it != by_req.end()) {
      covered_ns += CoveredWithin(it->second, window.start_ns, window.end_ns);
    }
  }
  summary.coverage = window_ns > 0 ? static_cast<double>(covered_ns) /
                                         static_cast<double>(window_ns)
                                   : 0.0;
  if (tracer.traced_wall_s() > 0.0) {
    summary.overhead = SpanCostNs() * static_cast<double>(spans.size()) *
                       1e-9 / tracer.traced_wall_s();
  }
  return summary;
}

}  // namespace promptem::bench
