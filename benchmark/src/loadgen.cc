#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

namespace promptem::bench {

namespace {

constexpr int64_t kMs = 1'000'000;
/// How long a phase waits for its last answers after sending stops, and
/// a windowed phase for room in a full window.
constexpr int64_t kDrainTimeoutNs = 5'000 * kMs;
/// Lateness p99 above which a phase is generator_bound. Latency is timed
/// from the due time, so lateness is already inside every latency; it
/// only invalidates a phase once it is a visible share of the 50 ms
/// limit. (On a shared 4-core machine, scheduler stalls of 1-3 ms hit
/// the sender at any rate once the server keeps its cores busy.)
constexpr double kGeneratorBoundMs = 5.0;
/// Lead time before the first open-loop arrival (lets the sender settle).
constexpr int64_t kLeadNs = 20 * kMs;

std::chrono::steady_clock::time_point SteadyAt(int64_t ns) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

/// Sleeps until `due_ns`, spinning through the last stretch so arrivals
/// are not late by the scheduler's wake-up slack.
void WaitUntil(int64_t due_ns) {
  while (true) {
    const int64_t remaining = due_ns - NowNs();
    if (remaining <= 0) return;
    if (remaining > 300'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(remaining - 200'000));
    }
  }
}

/// Percentile `p` of a phase's latencies, in send order: the median, over
/// up to seven equal consecutive slices of the phase, of each slice's
/// percentile. A stall of the shared machine that spans fewer than half
/// the slices barely moves it, where it would drag a pooled p90 with it.
/// Every slice keeps at least ten samples beyond `p`.
double PhasePercentile(const std::vector<double>& latency_ms, double p) {
  const size_t n = latency_ms.size();
  size_t slices = 7;
  while (slices > 1 && !PercentileSupported(n / slices, p)) slices -= 2;
  std::vector<double> per_slice;
  for (size_t s = 0; s < slices; ++s) {
    per_slice.push_back(Percentile(
        std::vector<double>(
            latency_ms.begin() + static_cast<ptrdiff_t>(s * n / slices),
            latency_ms.begin() + static_cast<ptrdiff_t>((s + 1) * n / slices)),
        p));
  }
  return Median(per_slice);
}

/// The wire bytes of one request: serve::WriteFrame's big-endian length
/// prefix and the payload, so the sender makes one write per request.
std::string Frame(const std::string& payload) {
  const uint32_t n = static_cast<uint32_t>(payload.size());
  std::string frame = {static_cast<char>(n >> 24), static_cast<char>(n >> 16),
                       static_cast<char>(n >> 8), static_cast<char>(n)};
  return frame + payload;
}

}  // namespace

struct LoadClient::Slot {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  uint32_t pairs = 0;
  bool answered = false;
  serve::ResponseStatus status = serve::ResponseStatus::kOk;
  size_t batch = 0;
  std::vector<em::ProbPair> probs;
};

/// One phase's requests, ids [base_id, base_id + count). Receivers write
/// a slot under `mu` only while the phase is open; once the sender closes
/// it, late answers are dropped and the slots are read without racing.
struct LoadClient::Phase {
  Phase(uint64_t base, size_t n, bool keep)
      : base_id(base), count(n), slots(new Slot[n]), keep_probs(keep) {}

  const uint64_t base_id;
  const size_t count;
  const std::unique_ptr<Slot[]> slots;
  const bool keep_probs;

  std::mutex mu;
  std::condition_variable answered_cv;
  uint64_t answered = 0;  // guarded by mu
  bool closed = false;    // guarded by mu
};

std::unique_ptr<LoadClient> LoadClient::Connect(int port, int connections,
                                                std::string* error) {
  std::unique_ptr<LoadClient> client(new LoadClient());
  for (int c = 0; c < connections; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = "socket failed";
      return nullptr;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      *error = "cannot connect to 127.0.0.1:" + std::to_string(port);
      return nullptr;  // the destructor joins receivers already started
    }
    client->fds_.push_back(fd);
    client->receivers_.emplace_back([raw = client.get(), fd] {
      raw->ReceiveLoop(fd);
    });
  }
  return client;
}

LoadClient::~LoadClient() {
  closing_.store(true);
  for (int fd : fds_) ::shutdown(fd, SHUT_RDWR);
  for (std::thread& t : receivers_) t.join();
  for (int fd : fds_) ::close(fd);
}

void LoadClient::Violation(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++violation_count_;
  if (violations_.size() < 20) violations_.push_back(what);
}

std::vector<std::string> LoadClient::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out = violations_;
  if (violation_count_ > violations_.size()) {
    out.push_back("... " +
                  std::to_string(violation_count_ - violations_.size()) +
                  " more");
  }
  return out;
}

void LoadClient::Break(const std::string& what) {
  Violation(what);
  broken_.store(true);
  std::vector<std::shared_ptr<Phase>> phases;
  {
    std::lock_guard<std::mutex> lock(mu_);
    phases = phases_;
  }
  for (const std::shared_ptr<Phase>& phase : phases) {
    // Taking the phase lock orders the store before any waiter's next
    // predicate check, so no wake-up is lost.
    { std::lock_guard<std::mutex> lock(phase->mu); }
    phase->answered_cv.notify_all();
  }
}

void LoadClient::ReceiveLoop(int fd) {
  while (true) {
    std::string payload;
    const core::Status read = serve::ReadFrame(fd, &payload);
    const int64_t now = NowNs();
    if (!read.ok()) {
      // Only the destructor closes a stream on purpose; the server ending
      // one (it died, or answered a framing violation) is a failure.
      if (!closing_.load()) {
        Break(read.code() == core::StatusCode::kNotFound
                  ? "response stream ended"
                  : "response stream broke: " + read.ToString());
      }
      return;
    }
    core::Result<serve::MatchResponse> parsed =
        serve::ParseMatchResponse(payload);
    if (!parsed.ok()) {
      Violation("unparseable response: " + parsed.status().ToString());
      continue;
    }
    Resolve(parsed.value(), now);
  }
}

void LoadClient::Resolve(const serve::MatchResponse& response,
                         int64_t now_ns) {
  std::shared_ptr<Phase> phase;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = phases_.rbegin(); it != phases_.rend(); ++it) {
      if (response.id >= (*it)->base_id &&
          response.id < (*it)->base_id + (*it)->count) {
        phase = *it;
        break;
      }
    }
  }
  if (phase == nullptr) {
    Violation("response for unknown id " + std::to_string(response.id));
    return;
  }
  Slot& slot = phase->slots[response.id - phase->base_id];
  std::string problem;
  if (response.status == serve::ResponseStatus::kOk) {
    if (response.probs.size() != slot.pairs ||
        response.labels.size() != slot.pairs) {
      problem = "wrong probs/labels count";
    }
    for (size_t i = 0; problem.empty() && i < response.probs.size(); ++i) {
      if (!ValidProbs(response.probs[i])) {
        problem = "invalid probability pair";
      } else if (response.labels[i] != ArgmaxLabel(response.probs[i])) {
        problem = "label is not the argmax";
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(phase->mu);
    if (phase->closed) return;  // counted failed when the phase closed
    if (slot.answered) {
      problem = "id answered twice";
    } else {
      slot.answered = true;
      slot.done_ns = now_ns;
      slot.status = response.status;
      slot.batch = response.batch_size;
      if (phase->keep_probs) slot.probs = response.probs;
      ++phase->answered;
    }
  }
  phase->answered_cv.notify_all();
  if (!problem.empty()) {
    Violation(problem + " (id " + std::to_string(response.id) + ")");
  }
}

PhaseReport LoadClient::Run(std::shared_ptr<Phase> phase,
                            const std::vector<std::string>& frames,
                            size_t window) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    phases_.push_back(phase);
  }
  const size_t n = phase->count;
  std::vector<double> lateness_ms;
  lateness_ms.reserve(n);
  uint64_t sent = 0;
  const int64_t send_start = NowNs();
  for (size_t i = 0; i < n && !broken_.load(); ++i) {
    Slot& slot = phase->slots[i];
    if (window > 0) {
      bool room = false;
      {
        std::unique_lock<std::mutex> lock(phase->mu);
        room = phase->answered_cv.wait_until(
            lock, SteadyAt(NowNs() + kDrainTimeoutNs), [&] {
              return broken_.load() || sent - phase->answered < window;
            });
      }
      if (!room) {
        Break("no answer within " + std::to_string(kDrainTimeoutNs / kMs) +
              " ms while the window was full");
      }
      if (broken_.load()) break;
      slot.due_ns = NowNs();
    } else {
      WaitUntil(slot.due_ns);
    }
    slot.sent_ns = NowNs();
    lateness_ms.push_back(static_cast<double>(slot.sent_ns - slot.due_ns) /
                          kMs);
    if (!serve::WriteFull(fds_[i % fds_.size()], frames[i].data(),
                          frames[i].size())) {
      Break("request send failed");
      break;
    }
    ++sent;
  }
  const int64_t send_stop = NowNs();

  PhaseReport report;
  report.seconds = static_cast<double>(send_stop - send_start) * 1e-9;
  report.sent = sent;
  {
    std::unique_lock<std::mutex> lock(phase->mu);
    report.in_flight_at_stop = sent - phase->answered;
    phase->answered_cv.wait_until(
        lock, SteadyAt(send_stop + kDrainTimeoutNs),
        [&] { return broken_.load() || phase->answered == sent; });
    phase->closed = true;
  }

  std::vector<double> latency_ms;
  latency_ms.reserve(n);
  double batch_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    Slot& slot = phase->slots[i];
    const bool ok =
        slot.answered && slot.status == serve::ResponseStatus::kOk;
    if (ok) {
      ++report.ok;
      batch_sum += static_cast<double>(slot.batch);
      latency_ms.push_back(static_cast<double>(slot.done_ns - slot.due_ns) /
                           kMs);
    } else {
      ++report.failed;
      if (slot.answered &&
          slot.status == serve::ResponseStatus::kOverloaded) {
        ++report.shed;
      }
      latency_ms.push_back(std::numeric_limits<double>::infinity());
    }
    if (phase->keep_probs) report.probs.push_back(std::move(slot.probs));
  }
  report.p50_ms = PhasePercentile(latency_ms, 0.50);
  report.p90_ms = PhasePercentile(latency_ms, 0.90);
  report.p95_ms = PhasePercentile(latency_ms, 0.95);
  report.p99_ms = PhasePercentile(latency_ms, 0.99);
  report.lateness_p99_ms = Percentile(lateness_ms, 0.99);
  report.generator_bound =
      window == 0 && report.lateness_p99_ms > kGeneratorBoundMs;
  report.mean_batch_pairs =
      report.ok > 0 ? batch_sum / static_cast<double>(report.ok) : 0.0;
  return report;
}

PhaseReport LoadClient::OpenLoop(
    const std::string& name, double rate, double seconds, uint64_t seed,
    const std::function<Request(core::Rng*)>& make) {
  core::Rng rng(seed);
  std::vector<int64_t> offsets;
  std::vector<Request> requests;
  double t = 0.0;
  while (true) {
    // Exponential inter-arrival gaps: a Poisson stream at `rate`.
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    offsets.push_back(static_cast<int64_t>(t * 1e9));
    requests.push_back(make(&rng));
  }
  auto phase = std::make_shared<Phase>(next_id_, requests.size(), false);
  std::vector<std::string> payloads;
  payloads.reserve(requests.size());
  const int64_t start = NowNs() + kLeadNs;
  for (size_t i = 0; i < requests.size(); ++i) {
    serve::MatchRequest request;
    request.id = next_id_++;
    request.pairs = std::move(requests[i]);
    phase->slots[i].pairs = static_cast<uint32_t>(request.pairs.size());
    phase->slots[i].due_ns = start + offsets[i];
    payloads.push_back(Frame(serve::SerializeRequest(request)));
  }
  PhaseReport report = Run(phase, payloads, /*window=*/0);
  report.name = name;
  report.rate = rate;
  return report;
}

PhaseReport LoadClient::Windowed(const std::string& name,
                                 const std::vector<Request>& requests,
                                 size_t window) {
  auto phase = std::make_shared<Phase>(next_id_, requests.size(), true);
  std::vector<std::string> payloads;
  payloads.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    serve::MatchRequest request;
    request.id = next_id_++;
    request.pairs = requests[i];
    phase->slots[i].pairs = static_cast<uint32_t>(request.pairs.size());
    payloads.push_back(Frame(serve::SerializeRequest(request)));
  }
  PhaseReport report = Run(phase, payloads, window);
  report.name = name;
  return report;
}

void PhaseReport::Print() const {
  std::printf(
      "phase %-10s rate %8.1f req/s  %5.2f s  sent %6llu ok %6llu shed %llu "
      "failed %llu  p50 %.3f p90 %.3f p95 %.3f p99 %.3f ms  late p99 %.3f ms  "
      "backlog %llu  batch %.1f pairs%s\n",
      name.c_str(), rate, seconds, static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(failed), p50_ms, p90_ms, p95_ms, p99_ms,
      lateness_p99_ms, static_cast<unsigned long long>(in_flight_at_stop),
      mean_batch_pairs, generator_bound ? "  generator_bound" : "");
}

}  // namespace promptem::bench
