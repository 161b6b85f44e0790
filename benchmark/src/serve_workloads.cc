// serve_uniform and serve_hot: promptem_serve answering one waiting
// caller, then open-loop load.
//
// The end-to-end run measures the real daemon binary: three spawns time
// its start-up, the third then serves the measured phases (see SizingFor)
// and finally the parity probe, whose scores must equal the in-process
// pipeline's bit for bit. The traced run cannot see inside the daemon, so
// it rebuilds the daemon's transport and scorer loops from the serve
// layer's public pieces (ReadFrame, ParseMatchRequest, BatchQueue,
// MatchService::HandleBatch, SerializeResponse, WriteFrame) and times
// each of them.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "core/hashing.h"
#include "core/thread_pool.h"
#include "data/io.h"
#include "loadgen.h"
#include "promptem/metrics.h"
#include "serve/batch_queue.h"
#include "serve/service.h"
#include "trace.h"

namespace promptem::bench {

namespace {

constexpr int kConnections = 2;
constexpr size_t kPairsPerRequest = 8;
constexpr size_t kHotPool = 4096;
constexpr double kZipfS = 1.1;
/// Admission-queue capacity of the server under test (promptem_serve
/// --queue-depth): deep enough that a scheduler stall of a few tens of
/// milliseconds at serve_hot's 10k req/s shows as latency, not as shed
/// requests.
constexpr size_t kQueueDepth = 4096;

/// The daemon runs at a lower priority, so the generator's threads, which
/// need little CPU, are scheduled the moment they wake.
constexpr int kDaemonNice = 10;

/// Pool lanes of the server under test: one core fewer than the machine
/// has. The load generator runs beside the server and needs a core of its
/// own — when the server's lanes occupy every core, the scheduler wakes
/// the sender and receivers milliseconds late, and both arrivals and the
/// latencies they time go wrong.
int ServeLanes() {
  const long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::max(1L, cores - 1));
}

/// Gives the calling thread the daemon's priority; threads it creates
/// inherit it.
void LowerThreadPriority() {
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), kDaemonNice);
}

/// The traced run's stand-in for the daemon's process settings: a pool of
/// ServeLanes() lanes whose workers run at the daemon's priority (they
/// are created by a thread that has it). Restores the default pool.
class ServerPool {
 public:
  ServerPool() {
    std::thread([] {
      LowerThreadPriority();
      core::SetNumThreads(ServeLanes());
    }).join();
  }
  ~ServerPool() { core::SetNumThreads(0); }

  ServerPool(const ServerPool&) = delete;
  ServerPool& operator=(const ServerPool&) = delete;
};

struct ServeSizing {
  std::string workload;
  size_t seq_requests = 0;  ///< requests of the one-caller phase
  double hi_rate = 0.0;     ///< open-loop rate (req/s)
  double hi_seconds = 0.0;
};

/// Every serve run drives two phases. In `seq` one caller sends each
/// request when the previous answer arrives (a closed loop); its latencies
/// are the workload's p50_ms and p90_ms. Open-loop latencies on a shared
/// 4-core machine swing with how fast idle cores wake up and how long
/// stalls back the queue up: over ten seeds their p90 spread 0.21-0.54
/// (interquartile range over median), where seq's stayed under 0.1. `hi` is open-loop Poisson load; the
/// pairs it served per daemon CPU-second are the workload's pairs_per_s.
/// seq is sized to take about a third of the run at the seed recording's
/// latencies on 4 cores (7.5 ms per uniform request, 60 us per hot one;
/// README.md), hi the rest. Uniform saturates near 300 req/s, and the
/// single sender keeps up to about 20k req/s.
ServeSizing SizingFor(const Options& options, bool hot) {
  ServeSizing s;
  s.workload = hot ? "serve_hot" : "serve_uniform";
  const double seconds =
      options.smoke ? 3.0 : static_cast<double>(kRunSeconds);
  s.seq_requests =
      static_cast<size_t>(seconds / 3.0 * (hot ? 16000.0 : 130.0));
  s.hi_rate = hot ? 10000.0 : 200.0;
  s.hi_seconds = seconds * 2.0 / 3.0;
  return s;
}

// ---------------------------------------------------------------------------
// The daemon under test.

/// One promptem_serve process: spawned with its stdout on a pipe (the
/// "listening" line marks the end of start-up) and stderr in a log file.
/// The child gets SIGKILL if promptem_bench dies, and the destructor kills
/// and reaps it, so no daemon outlives a run.
class Daemon {
 public:
  static std::unique_ptr<Daemon> Start(const std::vector<std::string>& args,
                                       const std::string& log_path,
                                       std::string* error) {
    std::vector<char*> argv;
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    // Built before fork: the child may only make async-signal-safe calls.
    const std::string lanes =
        "PROMPTEM_NUM_THREADS=" + std::to_string(ServeLanes());
    std::vector<char*> envp;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "PROMPTEM_NUM_THREADS=", 21) != 0) {
        envp.push_back(*e);
      }
    }
    envp.push_back(const_cast<char*>(lanes.c_str()));
    envp.push_back(nullptr);
    int out[2];
    if (::pipe(out) != 0) {
      *error = "pipe failed";
      return nullptr;
    }
    const pid_t parent = ::getpid();
    const int64_t spawn_ns = NowNs();
    const pid_t pid = ::fork();
    if (pid < 0) {
      *error = "fork failed";
      return nullptr;
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::setpriority(PRIO_PROCESS, 0, kDaemonNice);
      const int log = ::open(log_path.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
      ::dup2(out[1], STDOUT_FILENO);
      if (log >= 0) ::dup2(log, STDERR_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
    ::close(out[1]);
    std::unique_ptr<Daemon> daemon(new Daemon(pid, out[0]));
    if (!daemon->AwaitListening(error)) return nullptr;
    daemon->startup_s_ = SecondsSince(spawn_ns);
    return daemon;
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  double startup_s() const { return startup_s_; }

  /// User plus system CPU time the daemon has used so far.
  double CpuSeconds() const {
    const std::string path = "/proc/" + std::to_string(pid_) + "/stat";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) return 0.0;
    char buf[1024];
    const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    // Fields after the parenthesized command name; utime and stime are
    // the 12th and 13th of them.
    const char* p = std::strrchr(buf, ')');
    unsigned long long utime = 0;
    unsigned long long stime = 0;
    if (p == nullptr ||
        std::sscanf(p + 1,
                    " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                    &utime, &stime) != 2) {
      return 0.0;
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// The daemon's peak resident set (VmHWM), read while it still runs.
  double PeakRssMb() const {
    const std::string path = "/proc/" + std::to_string(pid_) + "/status";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) return 0.0;
    char line[256];
    unsigned long long kb = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        std::sscanf(line + 6, "%llu", &kb);
        break;
      }
    }
    std::fclose(f);
    return static_cast<double>(kb) / 1024.0;
  }

  /// SIGTERM and wait for the graceful drain (cache flush included);
  /// true when the daemon exited with status 0 within 30 s.
  bool Stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    const int64_t deadline = NowNs() + 30'000'000'000LL;
    int status = 0;
    while (true) {
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) break;
      if (NowNs() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  Daemon(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}

  bool AwaitListening(std::string* error) {
    static const char kMarker[] = "listening on 127.0.0.1:";
    const int64_t deadline = NowNs() + 150'000'000'000LL;
    std::string buffer;
    while (NowNs() < deadline) {
      pollfd pfd{out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      char chunk[512];
      const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) break;  // exited before listening
      buffer.append(chunk, static_cast<size_t>(n));
      const size_t at = buffer.find(kMarker);
      if (at != std::string::npos &&
          buffer.find('\n', at) != std::string::npos) {
        port_ = std::atoi(buffer.c_str() + at + sizeof(kMarker) - 1);
        return port_ > 0;
      }
    }
    *error = "daemon did not start listening; output: " + buffer;
    return false;
  }

  pid_t pid_;
  int out_fd_;
  int port_ = -1;
  double startup_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// Request streams.

/// Uniform pairs over the whole cross product, never repeating within a
/// run, so every pair misses the daemon's score cache.
class UniformPairs {
 public:
  explicit UniformPairs(const Catalog& catalog) : catalog_(catalog) {}

  void Reserve(const data::PairExample& pair) { used_.insert(Key(pair)); }

  Request Make(core::Rng* rng) {
    Request request(kPairsPerRequest);
    for (data::PairExample& pair : request) {
      do {
        pair.left_index = static_cast<int>(rng->NextU64(catalog_.left_rows));
        pair.right_index =
            static_cast<int>(rng->NextU64(catalog_.right_rows));
      } while (!used_.insert(Key(pair)).second);
      pair.label = data::kUnlabeledLabel;
    }
    return request;
  }

 private:
  uint64_t Key(const data::PairExample& pair) const {
    return static_cast<uint64_t>(pair.left_index) * catalog_.right_rows +
           static_cast<uint64_t>(pair.right_index);
  }

  const Catalog& catalog_;
  std::unordered_set<uint64_t> used_;
};

/// A fixed pool of distinct pairs drawn Zipf(s) by rank: after one
/// preload pass every request is a score-cache hit.
class HotPairs {
 public:
  HotPairs(const Catalog& catalog, uint64_t seed) {
    core::Rng rng(seed);
    std::unordered_set<uint64_t> seen;
    while (pool_.size() < kHotPool) {
      const int l = static_cast<int>(rng.NextU64(catalog.left_rows));
      const int r = static_cast<int>(rng.NextU64(catalog.right_rows));
      if (seen.insert(static_cast<uint64_t>(l) * catalog.right_rows +
                      static_cast<uint64_t>(r))
              .second) {
        pool_.push_back({l, r, data::kUnlabeledLabel});
      }
    }
    double total = 0.0;
    for (size_t k = 1; k <= kHotPool; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), kZipfS);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  /// The whole pool in requests of kPairsPerRequest (the preload pass).
  std::vector<Request> PoolRequests() const {
    std::vector<Request> requests;
    for (size_t i = 0; i < pool_.size(); i += kPairsPerRequest) {
      requests.emplace_back(pool_.begin() + static_cast<ptrdiff_t>(i),
                            pool_.begin() + static_cast<ptrdiff_t>(
                                                i + kPairsPerRequest));
    }
    return requests;
  }

  Request Make(core::Rng* rng) const {
    Request request;
    for (size_t i = 0; i < kPairsPerRequest; ++i) {
      const double u = rng->NextDouble();
      const size_t rank = static_cast<size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      request.push_back(pool_[std::min(rank, pool_.size() - 1)]);
    }
    return request;
  }

 private:
  std::vector<data::PairExample> pool_;
  std::vector<double> cdf_;
};

/// The request streams of one serve run: the parity probe, and the pair
/// sources every other request draws from. Holds `this` in the makers it
/// hands out, so it is neither copied nor moved.
struct Streams {
  Streams(const Catalog& catalog, const Options& options,
          const std::string& workload)
      : probe(ProbePairs(catalog, options)),
        uniform(catalog),
        hot(catalog, StreamSeed(options.seed, workload, "pool")) {
    for (const data::PairExample& pair : probe) uniform.Reserve(pair);
  }
  Streams(const Streams&) = delete;
  Streams& operator=(const Streams&) = delete;

  std::function<Request(core::Rng*)> Maker(bool hot_workload) {
    if (hot_workload) return [this](core::Rng* rng) { return hot.Make(rng); };
    return [this](core::Rng* rng) { return uniform.Make(rng); };
  }

  const std::vector<data::PairExample> probe;
  UniformPairs uniform;
  const HotPairs hot;
};

std::vector<Request> ProbeRequests(
    const std::vector<data::PairExample>& probe) {
  std::vector<Request> requests;
  for (size_t i = 0; i < probe.size(); i += kPairsPerRequest) {
    Request request(probe.begin() + static_cast<ptrdiff_t>(i),
                    probe.begin() + static_cast<ptrdiff_t>(
                                        std::min(i + kPairsPerRequest,
                                                 probe.size())));
    for (data::PairExample& pair : request) pair.label = data::kUnlabeledLabel;
    requests.push_back(std::move(request));
  }
  return requests;
}

std::vector<em::ProbPair> Flatten(const PhaseReport& report) {
  std::vector<em::ProbPair> flat;
  for (const auto& probs : report.probs) {
    flat.insert(flat.end(), probs.begin(), probs.end());
  }
  return flat;
}

/// Prints a phase and counts it into the run's attempted/failed tally.
/// Every request of the phase is attempted, including any left unsent
/// when the client broke (those count as failed).
void Tally(const PhaseReport& report, RunResult* result) {
  report.Print();
  result->attempted += report.ok + report.failed;
  result->failed += report.failed;
}

/// The measured phases (see SizingFor). Each draws its pairs from its own
/// stream, seeded from (seed, workload, phase).
PhaseReport DriveSeq(LoadClient* client, const ServeSizing& sizing,
                     const Options& options,
                     const std::function<Request(core::Rng*)>& make) {
  core::Rng rng(StreamSeed(options.seed, sizing.workload, "seq"));
  std::vector<Request> requests(sizing.seq_requests);
  for (Request& request : requests) request = make(&rng);
  return client->Windowed("seq", requests, /*window=*/1);
}

PhaseReport DriveHi(LoadClient* client, const ServeSizing& sizing,
                    const Options& options,
                    const std::function<Request(core::Rng*)>& make) {
  return client->OpenLoop("hi", sizing.hi_rate, sizing.hi_seconds,
                          StreamSeed(options.seed, sizing.workload, "hi"),
                          make);
}

std::vector<std::string> DaemonArgs(const Options& options,
                                    const Catalog& catalog,
                                    const std::string& cache_path) {
  return {options.serve_bin, "--dir",   catalog.dir,
          "--port",          "0",       "--lm",
          options.LmPrefix(), "--seed", std::to_string(kModelSeed),
          "--labels",        std::to_string(kRecipe.labels),
          "--epochs",        std::to_string(kRecipe.epochs),
          "--queue-depth",   std::to_string(kQueueDepth),
          "--embed-cache",   cache_path};
}

/// The in-process side of the parity probe: the same catalog, split and
/// run options through PromptEM + PairEncoder + ScoreBatch.
uint64_t InProcessProbeDigest(const Options& options, const Catalog& catalog,
                              const std::vector<data::PairExample>& probe) {
  std::unique_ptr<TrainedModel> trained = TrainModel(options, catalog.dir);
  return ProbDigest(em::ScoreBatch(
      trained->model(), trained->encoder->EncodeAll(trained->dataset, probe)));
}

RunResult RunUntraced(const Options& options, bool hot,
                      const Catalog& catalog, const std::string& run_dir) {
  const ServeSizing sizing = SizingFor(options, hot);
  RunResult result;

  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int k = 0; k < SetupRepeats(options); ++k) {
    // A fresh cache file per spawn: a previous spawn's flush must not
    // warm-start this one.
    const std::string cache = run_dir + "/score_cache_" + std::to_string(k);
    std::string error;
    std::unique_ptr<Daemon> spawned = Daemon::Start(
        DaemonArgs(options, catalog, cache),
        run_dir + "/daemon_" + std::to_string(k) + ".log", &error);
    if (spawned == nullptr) {
      result.Check(false, "daemon start: " + error);
      return result;
    }
    setups.push_back(spawned->startup_s());
    std::printf("setup %d: daemon listening after %.3f s\n", k,
                spawned->startup_s());
    if (k + 1 < SetupRepeats(options)) {
      result.Check(spawned->Stop(), "daemon drain after set-up exits 0");
    } else {
      daemon = std::move(spawned);
    }
  }

  std::string error;
  std::unique_ptr<LoadClient> client =
      LoadClient::Connect(daemon->port(), kConnections, &error);
  if (client == nullptr) {
    result.Check(false, error);
    return result;
  }

  Streams streams(catalog, options, sizing.workload);
  const std::vector<data::PairExample>& probe = streams.probe;
  const std::function<Request(core::Rng*)> make = streams.Maker(hot);

  if (hot) {
    Tally(client->Windowed("preload", streams.hot.PoolRequests(), 16),
          &result);
  }
  const PhaseReport seq = DriveSeq(client.get(), sizing, options, make);
  Tally(seq, &result);
  const double cpu_before = daemon->CpuSeconds();
  const PhaseReport hi = DriveHi(client.get(), sizing, options, make);
  const double cpu = daemon->CpuSeconds() - cpu_before;
  Tally(hi, &result);
  const double pairs_per_s =
      cpu > 0.0 ? static_cast<double>(hi.ok * kPairsPerRequest) / cpu : 0.0;
  std::printf("hi: %.3f daemon CPU-seconds, %.0f pairs per CPU-second\n",
              cpu, pairs_per_s);
  const PhaseReport probed = client->Windowed("probe", ProbeRequests(probe), 8);
  Tally(probed, &result);
  for (const std::string& violation : client->violations()) {
    result.Check(false, "response check: " + violation);
  }
  const double peak_rss_mb = daemon->PeakRssMb();
  client.reset();
  result.Check(daemon->Stop(), "daemon drain exits 0");

  const std::vector<em::ProbPair> served = Flatten(probed);
  result.Check(served.size() == probe.size(), "every probe pair answered");
  const uint64_t served_digest = ProbDigest(served);
  const uint64_t local_digest = InProcessProbeDigest(options, catalog, probe);
  std::printf("probe digest served %016llx in-process %016llx\n",
              static_cast<unsigned long long>(served_digest),
              static_cast<unsigned long long>(local_digest));
  result.Check(served_digest == local_digest,
               "served probe scores equal the in-process pipeline bitwise");
  result.Check(pairs_per_s > 0.0, "hi used measurable daemon CPU time");

  result.Add("setup_s", Median(setups), "s");
  result.Add("peak_rss_mb", peak_rss_mb, "MB");
  result.Add("p50_ms", seq.p50_ms, "ms");
  result.Add("p90_ms", seq.p90_ms, "ms");
  result.Add("pairs_per_s", pairs_per_s, "pairs/s");
  result.Add("f1", ProbeF1(probe, served), "pct");
  return result;
}

// ---------------------------------------------------------------------------
// The traced harness.

/// promptem_serve's request path — reader per connection, admission
/// queue, single scorer thread — assembled from the serve layer's public
/// functions with a span at every boundary. Per request: read_frame,
/// parse, queue_wait, in_batch, serialize and write_frame tile its
/// server-side lifetime (the coverage window); per sweep, handle_batch is
/// the parent of its completions, so its self time excludes them.
class TracedServer {
 public:
  TracedServer(serve::MatchService* service, Tracer* tracer)
      : service_(service),
        tracer_(tracer),
        queue_(QueueConfig()) {}

  ~TracedServer() { Stop(); }

  TracedServer(const TracedServer&) = delete;
  TracedServer& operator=(const TracedServer&) = delete;

  bool Start(std::string* error) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 16) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      *error = "traced server cannot listen";
      return false;
    }
    port_ = ntohs(addr.sin_port);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    scorer_thread_ = std::thread([this] { ScorerLoop(); });
    return true;
  }

  int port() const { return port_; }

  void Stop() {
    if (stopping_.exchange(true)) return;
    if (accept_thread_.joinable()) accept_thread_.join();
    for (std::thread& reader : readers_) reader.join();
    queue_.Close();
    if (scorer_thread_.joinable()) scorer_thread_.join();
    for (const auto& conn : conns_) ::close(conn->fd);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  serve::BatchQueue::Stats queue_stats() const { return queue_.stats(); }

  /// Pairs per scoring sweep, in sweep order (read after Stop, or as a
  /// prefix count while running through sweep_count()).
  std::vector<double> SweepWidths(size_t from) const {
    std::lock_guard<std::mutex> lock(widths_mu_);
    return std::vector<double>(widths_.begin() + static_cast<ptrdiff_t>(from),
                               widths_.end());
  }
  size_t sweep_count() const {
    std::lock_guard<std::mutex> lock(widths_mu_);
    return widths_.size();
  }

 private:
  static serve::BatchQueue::Config QueueConfig() {
    serve::BatchQueue::Config config;
    config.capacity = kQueueDepth;
    return config;
  }

  struct Conn {
    explicit Conn(int fd) : fd(fd) {}
    const int fd;
    std::mutex write_mu;
  };

  void AcceptLoop() {
    LowerThreadPriority();  // readers inherit it
    while (!stopping_.load()) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_shared<Conn>(fd);
      conns_.push_back(conn);
      readers_.emplace_back([this, conn] { ReadLoop(conn); });
    }
  }

  void Write(const std::shared_ptr<Conn>& conn, const std::string& payload) {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    [[maybe_unused]] const core::Status written =
        serve::WriteFrame(conn->fd, payload);
  }

  void ReadLoop(std::shared_ptr<Conn> conn) {
    while (!stopping_.load()) {
      // Idle time waiting for the next request belongs to no layer:
      // read_frame starts once bytes are available.
      pollfd pfd{conn->fd, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      const int64_t t0 = NowNs();
      std::string payload;
      if (!serve::ReadFrame(conn->fd, &payload).ok()) return;
      const int64_t t1 = NowNs();
      core::Result<serve::MatchRequest> parsed =
          serve::ParseMatchRequest(payload);
      const int64_t t2 = NowNs();
      if (!parsed.ok()) {
        serve::MatchResponse bad;
        bad.status = serve::ResponseStatus::kBadRequest;
        bad.error = parsed.status().message();
        Write(conn, serve::SerializeResponse(bad));
        continue;
      }
      const uint64_t req = parsed.value().id;
      tracer_->Record(Layer::kServeReadFrame, t0, t1, 0, req);
      tracer_->Record(Layer::kServeParse, t1, t2, 0, req);

      serve::PendingRequest pending;
      pending.request = std::move(parsed).value();
      pending.enqueue_time = std::chrono::steady_clock::now();
      const int64_t enqueued = NowNs();
      // Completions run on the scorer thread inside HandleBatch, which
      // set batch_span_/batch_start_ns_ before the call.
      pending.complete = [this, conn, req, t0,
                          enqueued](serve::MatchResponse response) {
        const int64_t c0 = NowNs();
        const std::string out = serve::SerializeResponse(response);
        const int64_t c1 = NowNs();
        Write(conn, out);
        const int64_t c2 = NowNs();
        tracer_->Record(Layer::kServeQueueWait, enqueued, batch_start_ns_, 0,
                        req);
        tracer_->Record(Layer::kServeInBatch, batch_start_ns_, c0, 0, req);
        tracer_->Record(Layer::kServeSerialize, c0, c1, batch_span_, req);
        tracer_->Record(Layer::kServeWriteFrame, c1, c2, batch_span_, req);
        tracer_->AddWindow(t0, c2, req);
      };
      const uint64_t id = pending.request.id;
      if (!queue_.TryEnqueue(std::move(pending))) {
        serve::MatchResponse shed;
        shed.id = id;
        shed.status = serve::ResponseStatus::kOverloaded;
        shed.error = "queue full";
        Write(conn, serve::SerializeResponse(shed));
      }
    }
  }

  void ScorerLoop() {
    LowerThreadPriority();
    while (true) {
      std::vector<serve::PendingRequest> batch = queue_.DequeueBatch();
      if (batch.empty()) return;
      batch_start_ns_ = NowNs();
      batch_span_ = tracer_->NewId();
      double pairs = 0.0;
      for (const serve::PendingRequest& pending : batch) {
        pairs += static_cast<double>(pending.request.pairs.size());
      }
      service_->HandleBatch(std::move(batch));
      tracer_->Record(Layer::kServeHandleBatch, batch_start_ns_, NowNs(), 0, 0,
                      batch_span_);
      std::lock_guard<std::mutex> lock(widths_mu_);
      widths_.push_back(pairs);
    }
  }

  serve::MatchService* service_;
  Tracer* tracer_;
  serve::BatchQueue queue_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::vector<std::shared_ptr<Conn>> conns_;  // accept thread only
  std::vector<std::thread> readers_;          // accept thread only
  // Scorer-thread state read by completions on the same thread.
  uint32_t batch_span_ = 0;
  int64_t batch_start_ns_ = 0;
  mutable std::mutex widths_mu_;
  std::vector<double> widths_;
  std::thread accept_thread_;
  std::thread scorer_thread_;
};

RunResult RunTraced(const Options& options, bool hot, const Catalog& catalog,
                    Tracer* tracer) {
  const ServeSizing sizing = SizingFor(options, hot);
  RunResult result;

  const ServerPool pool;
  const int64_t setup_start = NowNs();
  auto lm = lm::PretrainedLM::Load(options.LmPrefix());
  auto dataset = data::LoadGemDataset(catalog.dir, "custom");
  if (!lm.ok() || !dataset.ok()) {
    result.Check(false, "traced set-up: cannot load LM or catalog");
    return result;
  }
  std::unique_ptr<lm::PretrainedLM> model_lm = std::move(lm).value();
  data::GemDataset tables = std::move(dataset).value();
  data::LowResourceSplit split = MakeSplit(tables);
  serve::MatchService::Config config;
  config.kind = data::BenchmarkKind::kSemiHomo;  // promptem_serve's --dir kind
  config.score_cache = std::make_shared<em::EmbeddingCache>();
  serve::MatchService service(model_lm.get(), std::move(tables),
                              std::move(split), MakeRunOptions(),
                              config);
  result.Check(service.TrainAll().ok(), "traced set-up trains");
  tracer->Record(Layer::kTrainSetup, setup_start, NowNs());

  TracedServer server(&service, tracer);
  std::string error;
  if (!server.Start(&error)) {
    result.Check(false, error);
    return result;
  }
  std::unique_ptr<LoadClient> client =
      LoadClient::Connect(server.port(), kConnections, &error);
  if (client == nullptr) {
    result.Check(false, error);
    return result;
  }

  Streams streams(catalog, options, sizing.workload);
  const std::vector<data::PairExample>& probe = streams.probe;
  const std::function<Request(core::Rng*)> make = streams.Maker(hot);
  if (hot) Tally(client->Windowed("preload", streams.hot.PoolRequests(), 16),
                 &result);

  const serve::MatchService::Stats before = service.stats();
  const size_t sweeps_before = server.sweep_count();
  const PhaseReport seq = DriveSeq(client.get(), sizing, options, make);
  Tally(seq, &result);
  const PhaseReport hi = DriveHi(client.get(), sizing, options, make);
  Tally(hi, &result);
  tracer->SetTracedWall(seq.seconds + hi.seconds);
  const serve::MatchService::Stats after = service.stats();
  const std::vector<double> widths = server.SweepWidths(sweeps_before);

  Tally(client->Windowed("probe", ProbeRequests(probe), 8), &result);
  for (const std::string& violation : client->violations()) {
    result.Check(false, "response check: " + violation);
  }
  client.reset();
  server.Stop();

  const double hits = static_cast<double>(after.score_hits - before.score_hits);
  const double scored =
      static_cast<double>(after.pairs_scored - before.pairs_scored);
  double width_sum = 0.0;
  for (double w : widths) width_sum += w;
  result.Add("serve.batch_pairs.mean",
             widths.empty() ? 0.0
                            : width_sum / static_cast<double>(widths.size()),
             "pairs");
  result.Add("serve.batch_pairs.p99",
             PercentileSupported(widths.size(), 0.99) ? Percentile(widths, 0.99)
                                                      : 0.0,
             "pairs");
  result.Add("serve.sweeps", static_cast<double>(after.sweeps - before.sweeps),
             "count");
  result.Add("serve.shed", static_cast<double>(server.queue_stats().shed),
             "count");
  result.Add("serve.expired", static_cast<double>(after.expired), "count");
  result.Add("serve.score_hit_ratio",
             hits + scored > 0.0 ? hits / (hits + scored) : 0.0, "ratio");
  return result;
}

}  // namespace

RunResult RunServeWorkload(const Options& options, bool hot, Tracer* tracer) {
  const std::string workload = hot ? "serve_hot" : "serve_uniform";
  const std::string run_dir = options.work_dir + "/" + workload;
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);
  std::filesystem::create_directories(run_dir, ec);
  const Catalog catalog =
      WriteCatalog(options, CatalogRows(options), run_dir + "/catalog");
  return tracer->enabled() ? RunTraced(options, hot, catalog, tracer)
                           : RunUntraced(options, hot, catalog, run_dir);
}

}  // namespace promptem::bench
