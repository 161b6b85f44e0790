#ifndef PROMPTEM_BENCHMARK_LOADGEN_H_
#define PROMPTEM_BENCHMARK_LOADGEN_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/rng.h"
#include "serve/protocol.h"

namespace promptem::bench {

/// The pairs of one match request.
using Request = std::vector<data::PairExample>;

/// What one phase of load saw, timed from each request's due time.
struct PhaseReport {
  std::string name;
  double rate = 0.0;     ///< offered requests/s (0 for windowed phases)
  double seconds = 0.0;  ///< time spent sending
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;    ///< answered "overloaded"
  uint64_t failed = 0;  ///< every request not answered ok (shed included)
  /// Latency percentiles, each the median of the phase's slices (see
  /// PhasePercentile in loadgen.cc); a failed request counts as
  /// infinitely late.
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  /// How late the generator sent, p99 over the phase.
  double lateness_p99_ms = 0.0;
  /// Requests still unanswered when sending stopped (the backlog).
  uint64_t in_flight_at_stop = 0;
  /// Lateness p99 above 5 ms: the generator, not the server, set the pace.
  bool generator_bound = false;
  /// Mean coalesced sweep width the server reported for ok responses.
  double mean_batch_pairs = 0.0;
  /// Per-request probabilities, kept for windowed phases only.
  std::vector<std::vector<em::ProbPair>> probs;

  void Print() const;
};

/// Load generator for promptem_serve's framed TCP protocol. One sender
/// (the calling thread) spreads requests round-robin over the
/// connections; one receiver thread per connection reads responses,
/// matches them to their requests and checks every one: answered exactly
/// once, one finite probability pair per request pair summing to 1
/// within 1e-5, and labels equal to the argmax.
class LoadClient {
 public:
  /// Connects to 127.0.0.1:port; null (with *error set) on failure.
  static std::unique_ptr<LoadClient> Connect(int port, int connections,
                                             std::string* error);
  ~LoadClient();

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Open loop: Poisson arrivals at `rate` for `seconds`, arrival times
  /// and request k's pairs drawn from Rng(seed) through `make`. Requests
  /// are generated and serialized before sending starts.
  PhaseReport OpenLoop(const std::string& name, double rate, double seconds,
                       uint64_t seed,
                       const std::function<Request(core::Rng*)>& make);

  /// Sends `requests` with at most `window` in flight and keeps every
  /// response's probabilities (cache preloads and the parity probe).
  PhaseReport Windowed(const std::string& name,
                       const std::vector<Request>& requests, size_t window);

  /// Protocol violations the sender and receivers saw (empty when all is
  /// well): malformed, unknown or twice-answered responses, a response
  /// stream that ended, a window that stayed full for the drain timeout.
  std::vector<std::string> violations() const;

 private:
  struct Slot;
  struct Phase;

  LoadClient() = default;
  void ReceiveLoop(int fd);
  void Resolve(const serve::MatchResponse& response, int64_t now_ns);
  void Violation(const std::string& what);
  /// Records `what`, marks the client broken and wakes the open phase, so
  /// the sender stops instead of waiting for answers that cannot come.
  void Break(const std::string& what);
  /// Runs one phase: writes frame i at slot i's due_ns (open loop) or as
  /// the window allows (due_ns set at send time), then drains. Stops
  /// sending once the client is broken; unsent requests count as failed.
  PhaseReport Run(std::shared_ptr<Phase> phase,
                  const std::vector<std::string>& frames, size_t window);

  std::vector<int> fds_;
  std::vector<std::thread> receivers_;
  std::atomic<bool> closing_{false};
  /// A response stream ended or a window never drained: no more answers.
  std::atomic<bool> broken_{false};
  uint64_t next_id_ = 1;

  mutable std::mutex mu_;  // guards phases_ and violations_
  std::vector<std::shared_ptr<Phase>> phases_;
  std::vector<std::string> violations_;
  size_t violation_count_ = 0;
};

}  // namespace promptem::bench

#endif  // PROMPTEM_BENCHMARK_LOADGEN_H_
