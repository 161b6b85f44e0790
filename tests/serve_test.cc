// Tests for the resident serving layer: wire-protocol round trips and
// malformed-frame rejection, BatchQueue admission control and drain
// semantics, MatchService coalescing/caching exactness, and the full
// ServeDaemon over real TCP sockets — served scores bitwise identical
// to the in-process one-shot path, queue overflow shedding, deadline
// expiry, and a client killed mid-stream never taking the daemon down.
// Labels: serve, asan.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/matchers.h"
#include "core/rng.h"
#include "core/signals.h"
#include "data/benchmarks.h"
#include "data/synthetic.h"
#include "lm/pretrained_lm.h"
#include "promptem/embed_cache.h"
#include "serve/batch_queue.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "train/registry.h"

namespace promptem {
namespace {

const lm::PretrainedLM& FixtureLM() {
  static const lm::PretrainedLM* kLm = [] {
    auto loaded =
        lm::PretrainedLM::Load("tests/data/promptem_integration_lm");
    if (!loaded.ok()) {
      std::fprintf(stderr,
                   "fixture LM missing (%s); tests must run from the repo "
                   "root\n",
                   loaded.status().ToString().c_str());
      std::abort();
    }
    return loaded.value().release();
  }();
  return *kLm;
}

data::GemDataset ServeDataset() {
  data::SyntheticTableOptions options;
  options.rows = 40;
  options.seed = 7;
  data::SyntheticTables tables = data::GenerateSyntheticTables(options);
  return tables.ToDataset(64, 7 ^ 0xDA7AULL);
}

train::RunOptions FastOptions() {
  train::RunOptions options;
  options.seed = 7;
  options.epochs = 2;
  options.student_epochs = 2;
  return options;
}

/// A fresh service over the fixture dataset with DeepMatcher trained
/// (cheap: two epochs on 40-row tables).
std::unique_ptr<serve::MatchService> MakeService(
    serve::MatchService::Config config = {}) {
  if (config.default_matcher == "PromptEM") {
    config.default_matcher = "DeepMatcher";
  }
  data::GemDataset dataset = ServeDataset();
  core::Rng rng(7);
  data::LowResourceSplit split =
      data::MakeLowResourceSplit(dataset, 0.25, &rng);
  auto service = std::make_unique<serve::MatchService>(
      &FixtureLM(), std::move(dataset), std::move(split), FastOptions(),
      config);
  const core::Status trained = service->TrainAll();
  EXPECT_TRUE(trained.ok()) << trained.ToString();
  return service;
}

/// The CLI one-shot reference: an independently trained matcher scoring
/// the same pairs directly through Matcher::ScoreProbs.
std::vector<std::array<float, 2>> OneShotReference(
    const std::vector<data::PairExample>& pairs) {
  baselines::EnsureBaselineMatchersRegistered();
  data::GemDataset dataset = ServeDataset();
  core::Rng rng(7);
  data::LowResourceSplit split =
      data::MakeLowResourceSplit(dataset, 0.25, &rng);
  train::MatcherContext ctx;
  ctx.lm = &FixtureLM();
  ctx.dataset = &dataset;
  ctx.split = &split;
  ctx.options = FastOptions();
  auto matcher = train::MatcherRegistry::Instance().Create("DeepMatcher");
  matcher->Train(ctx);
  return matcher->ScoreProbs(ctx, pairs);
}

std::vector<data::PairExample> SomePairs(size_t n, uint64_t seed) {
  const data::GemDataset dataset = ServeDataset();
  core::Rng rng(seed);
  std::vector<data::PairExample> pairs(n);
  for (auto& pair : pairs) {
    pair.left_index =
        static_cast<int>(rng.NextU64(dataset.left_table.size()));
    pair.right_index =
        static_cast<int>(rng.NextU64(dataset.right_table.size()));
    pair.label = data::kUnlabeledLabel;
  }
  return pairs;
}

bool BitwiseEqual(const std::vector<std::array<float, 2>>& a,
                  const std::vector<std::array<float, 2>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(a[i].data(), b[i].data(), sizeof(float) * 2) != 0) {
      return false;
    }
  }
  return true;
}

/// Test-only matcher whose ScoreProbs sleeps: pins queue-overflow and
/// deadline behavior without depending on model speed. Hidden from
/// --list-matchers; probabilities are a pure function of the pair so
/// the coalescing contract still holds.
class SlowMatcher : public train::Matcher {
 public:
  std::string Name() const override { return "SlowTest"; }
  void Train(const train::MatcherContext&) override {}
  std::vector<int> Predict(
      const train::MatcherContext&,
      const std::vector<data::PairExample>& pairs) override {
    return std::vector<int>(pairs.size(), 0);
  }
  std::vector<std::array<float, 2>> ScoreProbs(
      const train::MatcherContext&,
      const std::vector<data::PairExample>& pairs) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::vector<std::array<float, 2>> probs(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      const float p =
          static_cast<float>(pairs[i].left_index % 7) / 8.0f;
      probs[i] = {1.0f - p, p};
    }
    return probs;
  }
};

void EnsureSlowMatcherRegistered() {
  static const bool kOnce = [] {
    train::MatcherRegistry::Instance().Register(
        "SlowTest", [] { return std::make_unique<SlowMatcher>(); },
        /*listed=*/false);
    return true;
  }();
  (void)kOnce;
}

// --- protocol ---

TEST(ServeProtocolTest, RequestRoundTrip) {
  serve::MatchRequest request;
  request.id = 42;
  request.matcher = "DeepMatcher";
  request.deadline_ms = 250;
  request.pairs = SomePairs(5, 3);
  auto parsed = serve::ParseMatchRequest(serve::SerializeRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().id, 42u);
  EXPECT_EQ(parsed.value().matcher, "DeepMatcher");
  EXPECT_EQ(parsed.value().deadline_ms, 250);
  ASSERT_EQ(parsed.value().pairs.size(), request.pairs.size());
  for (size_t i = 0; i < request.pairs.size(); ++i) {
    EXPECT_EQ(parsed.value().pairs[i].left_index,
              request.pairs[i].left_index);
    EXPECT_EQ(parsed.value().pairs[i].right_index,
              request.pairs[i].right_index);
    EXPECT_EQ(parsed.value().pairs[i].label, data::kUnlabeledLabel);
  }
}

TEST(ServeProtocolTest, InfoRequestRoundTrip) {
  serve::MatchRequest request;
  request.id = 9;
  request.op = serve::RequestOp::kInfo;
  auto parsed = serve::ParseMatchRequest(serve::SerializeRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().op, serve::RequestOp::kInfo);
}

TEST(ServeProtocolTest, ResponseFloatsSurviveTheWireBitwise) {
  serve::MatchResponse response;
  response.id = 7;
  response.status = serve::ResponseStatus::kOk;
  // Awkward floats: denormal-adjacent, repeating-binary, and exact.
  response.probs = {{0.1f, 0.9f},
                    {1.0f / 3.0f, 2.0f / 3.0f},
                    {1.1754944e-38f, 1.0f - 1.1920929e-7f}};
  response.labels = {1, 1, 1};
  response.batch_size = 17;
  auto parsed =
      serve::ParseMatchResponse(serve::SerializeResponse(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(BitwiseEqual(parsed.value().probs, response.probs));
  EXPECT_EQ(parsed.value().batch_size, 17u);
  EXPECT_EQ(parsed.value().labels, response.labels);
}

TEST(ServeProtocolTest, MalformedRequestsAreRejected) {
  const char* bad[] = {
      "not json at all",
      "[1,2,3]",
      "{\"id\": -1, \"pairs\": [[0,0]]}",
      "{\"id\": 1.5, \"pairs\": [[0,0]]}",
      "{\"pairs\": []}",
      "{\"pairs\": [[0]]}",
      "{\"pairs\": [[0,1,2]]}",
      "{\"pairs\": [[-1,0]]}",
      "{\"pairs\": [[0,0.5]]}",
      "{\"pairs\": 3}",
      "{\"op\": \"explode\", \"pairs\": [[0,0]]}",
      "{\"deadline_ms\": -5, \"pairs\": [[0,0]]}",
      "{\"matcher\": 7, \"pairs\": [[0,0]]}",
      "{}",
  };
  for (const char* request : bad) {
    EXPECT_FALSE(serve::ParseMatchRequest(request).ok()) << request;
  }
  // A ~30 KB frame of nested brackets, parsed on a plain thread the way a
  // connection reader parses it: rejected, not a stack overflow.
  bool deep_ok = true;
  std::thread reader([&deep_ok] {
    deep_ok = serve::ParseMatchRequest(std::string(30000, '[')).ok();
  });
  reader.join();
  EXPECT_FALSE(deep_ok);
}

TEST(ServeProtocolTest, PairCapIsEnforced) {
  std::string request = "{\"pairs\":[";
  for (size_t i = 0; i <= serve::kMaxPairsPerRequest; ++i) {
    if (i > 0) request += ',';
    request += "[0,0]";
  }
  request += "]}";
  EXPECT_FALSE(serve::ParseMatchRequest(request).ok());
}

TEST(ServeProtocolTest, FrameRoundTripAndErrors) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  ASSERT_TRUE(serve::WriteFrame(fds[1], "{\"id\":1}").ok());
  std::string payload;
  ASSERT_TRUE(serve::ReadFrame(fds[0], &payload).ok());
  EXPECT_EQ(payload, "{\"id\":1}");

  // Oversized declared length: rejected before any allocation happens.
  const uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(serve::WriteFull(fds[1], huge, 4));
  EXPECT_EQ(serve::ReadFrame(fds[0], &payload).code(),
            core::StatusCode::kInvalidArgument);

  // Truncated payload then EOF.
  const uint8_t header[4] = {0, 0, 0, 100};
  ASSERT_TRUE(serve::WriteFull(fds[1], header, 4));
  ASSERT_TRUE(serve::WriteFull(fds[1], "short", 5));
  ::close(fds[1]);
  EXPECT_EQ(serve::ReadFrame(fds[0], &payload).code(),
            core::StatusCode::kInvalidArgument);

  // Clean EOF at a frame boundary is NotFound, not an error.
  EXPECT_EQ(serve::ReadFrame(fds[0], &payload).code(),
            core::StatusCode::kNotFound);
  ::close(fds[0]);
}

// --- batch queue ---

serve::PendingRequest Pending(uint64_t id,
                              std::vector<serve::MatchResponse>* sink,
                              std::mutex* sink_mu) {
  serve::PendingRequest pending;
  pending.request.id = id;
  pending.request.pairs = SomePairs(1, id);
  pending.enqueue_time = std::chrono::steady_clock::now();
  pending.complete = [sink, sink_mu](serve::MatchResponse response) {
    std::lock_guard<std::mutex> lock(*sink_mu);
    sink->push_back(std::move(response));
  };
  return pending;
}

TEST(BatchQueueTest, ShedsBeyondCapacityAndDrainsAfterClose) {
  serve::BatchQueue queue({/*capacity=*/2, /*max_batch=*/8});
  std::vector<serve::MatchResponse> sink;
  std::mutex sink_mu;
  EXPECT_TRUE(queue.TryEnqueue(Pending(1, &sink, &sink_mu)));
  EXPECT_TRUE(queue.TryEnqueue(Pending(2, &sink, &sink_mu)));
  EXPECT_FALSE(queue.TryEnqueue(Pending(3, &sink, &sink_mu)));  // shed
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.stats().shed, 1u);

  queue.Close();
  EXPECT_FALSE(queue.TryEnqueue(Pending(4, &sink, &sink_mu)));

  // Admitted work survives Close: one batch with both requests, then the
  // empty batch that tells the consumer to exit.
  std::vector<serve::PendingRequest> batch = queue.DequeueBatch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].request.id, 1u);
  EXPECT_EQ(batch[1].request.id, 2u);
  EXPECT_TRUE(queue.DequeueBatch().empty());
}

TEST(BatchQueueTest, MaxBatchBoundsOneDequeue) {
  serve::BatchQueue queue({/*capacity=*/16, /*max_batch=*/3});
  std::vector<serve::MatchResponse> sink;
  std::mutex sink_mu;
  for (uint64_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(queue.TryEnqueue(Pending(id, &sink, &sink_mu)));
  }
  EXPECT_EQ(queue.DequeueBatch().size(), 3u);
  EXPECT_EQ(queue.DequeueBatch().size(), 3u);
  EXPECT_EQ(queue.DequeueBatch().size(), 2u);
  EXPECT_EQ(queue.stats().batches, 3u);
  EXPECT_EQ(queue.stats().dequeued, 8u);
}

TEST(BatchQueueTest, DequeueBlocksUntilWorkArrives) {
  serve::BatchQueue queue({/*capacity=*/4, /*max_batch=*/4});
  std::vector<serve::MatchResponse> sink;
  std::mutex sink_mu;
  std::atomic<size_t> got{0};
  std::thread consumer([&] { got = queue.DequeueBatch().size(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(got.load(), 0u);
  ASSERT_TRUE(queue.TryEnqueue(Pending(1, &sink, &sink_mu)));
  consumer.join();
  EXPECT_EQ(got.load(), 1u);
}

// --- service ---

TEST(MatchServiceTest, ServedScoresMatchOneShotPathBitwise) {
  auto service = MakeService();
  const std::vector<data::PairExample> pairs = SomePairs(12, 11);

  serve::MatchRequest request;
  request.id = 1;
  request.pairs = pairs;
  const serve::MatchResponse response = service->Score(request);
  ASSERT_EQ(response.status, serve::ResponseStatus::kOk);
  ASSERT_EQ(response.probs.size(), pairs.size());

  // The pin: a resident service and a freshly trained one-shot matcher
  // produce bit-identical probabilities for the same pairs.
  EXPECT_TRUE(BitwiseEqual(response.probs, OneShotReference(pairs)));
}

TEST(MatchServiceTest, CoalescedBatchEqualsIndividualScoring) {
  auto service = MakeService();

  std::vector<serve::MatchResponse> individual;
  for (uint64_t id = 0; id < 4; ++id) {
    serve::MatchRequest request;
    request.id = id;
    request.pairs = SomePairs(3 + id, 100 + id);
    individual.push_back(service->Score(request));
  }

  auto coalesced_service = MakeService();
  std::vector<serve::MatchResponse> coalesced;
  std::mutex mu;
  std::vector<serve::PendingRequest> batch;
  for (uint64_t id = 0; id < 4; ++id) {
    serve::PendingRequest pending;
    pending.request.id = id;
    pending.request.pairs = SomePairs(3 + id, 100 + id);
    pending.enqueue_time = std::chrono::steady_clock::now();
    pending.complete = [&coalesced, &mu](serve::MatchResponse response) {
      std::lock_guard<std::mutex> lock(mu);
      coalesced.push_back(std::move(response));
    };
    batch.push_back(std::move(pending));
  }
  coalesced_service->HandleBatch(std::move(batch));

  ASSERT_EQ(coalesced.size(), individual.size());
  size_t total_pairs = 0;
  for (size_t i = 0; i < coalesced.size(); ++i) {
    total_pairs += individual[i].probs.size();
  }
  for (size_t i = 0; i < coalesced.size(); ++i) {
    const auto& one = individual[coalesced[i].id];
    EXPECT_EQ(coalesced[i].status, serve::ResponseStatus::kOk);
    EXPECT_TRUE(BitwiseEqual(coalesced[i].probs, one.probs)) << i;
    EXPECT_EQ(coalesced[i].labels, one.labels) << i;
    // batch_size reports the real coalesced sweep width.
    EXPECT_EQ(coalesced[i].batch_size, total_pairs);
  }
  EXPECT_EQ(coalesced_service->stats().sweeps, 1u);
}

TEST(MatchServiceTest, ScoreCacheHitsAreBitwiseExactAndPersist) {
  const std::string path = ::testing::TempDir() + "/serve_score_cache.phx";
  std::remove(path.c_str());
  auto cache = std::make_shared<em::EmbeddingCache>();
  ASSERT_EQ(cache->Attach(path).code(), core::StatusCode::kNotFound);
  serve::MatchService::Config config;
  config.score_cache = cache;
  auto service = MakeService(config);
  const std::vector<data::PairExample> pairs = SomePairs(10, 21);

  serve::MatchRequest request;
  request.id = 1;
  request.pairs = pairs;
  const serve::MatchResponse cold = service->Score(request);
  const auto after_cold = service->stats();
  EXPECT_EQ(after_cold.score_hits, 0u);

  const serve::MatchResponse warm = service->Score(request);
  const auto after_warm = service->stats();
  EXPECT_TRUE(BitwiseEqual(warm.probs, cold.probs));
  EXPECT_EQ(after_warm.score_hits, pairs.size());
  EXPECT_EQ(after_warm.pairs_scored, after_cold.pairs_scored);

  // Restart-stable: a new service over the same dataset/options reading
  // the persisted file serves every pair from cache, bitwise equal.
  ASSERT_TRUE(cache->Save().ok());
  auto reloaded = std::make_shared<em::EmbeddingCache>();
  ASSERT_TRUE(reloaded->Attach(path).ok());
  EXPECT_EQ(reloaded->PersistedEntries(), pairs.size());
  serve::MatchService::Config warm_config;
  warm_config.score_cache = reloaded;
  auto restarted = MakeService(warm_config);
  const serve::MatchResponse revived = restarted->Score(request);
  EXPECT_TRUE(BitwiseEqual(revived.probs, cold.probs));
  EXPECT_EQ(restarted->stats().score_hits, pairs.size());
  EXPECT_EQ(restarted->stats().pairs_scored, 0u);
  std::remove(path.c_str());
}

TEST(MatchServiceTest, RejectsUnknownMatcherAndOutOfRangeIndexes) {
  auto service = MakeService();

  serve::MatchRequest unknown;
  unknown.id = 1;
  unknown.matcher = "NoSuchMatcher";
  unknown.pairs = SomePairs(1, 1);
  EXPECT_EQ(service->Score(unknown).status,
            serve::ResponseStatus::kUnknownMatcher);

  serve::MatchRequest out_of_range;
  out_of_range.id = 2;
  out_of_range.pairs = SomePairs(1, 1);
  out_of_range.pairs[0].left_index = 1 << 20;
  const serve::MatchResponse response = service->Score(out_of_range);
  EXPECT_EQ(response.status, serve::ResponseStatus::kBadRequest);
  EXPECT_NE(response.error.find("out of range"), std::string::npos);
  EXPECT_EQ(service->stats().rejected, 2u);
}

TEST(MatchServiceTest, ExpiredRequestsCompleteWithoutScoring) {
  auto service = MakeService();
  std::vector<serve::MatchResponse> responses;
  std::mutex mu;
  std::vector<serve::PendingRequest> batch;
  for (int i = 0; i < 2; ++i) {
    serve::PendingRequest pending;
    pending.request.id = static_cast<uint64_t>(i);
    pending.request.pairs = SomePairs(2, 30);
    pending.enqueue_time = std::chrono::steady_clock::now();
    if (i == 0) {
      pending.has_deadline = true;
      pending.deadline =
          pending.enqueue_time - std::chrono::milliseconds(5);
    }
    pending.complete = [&responses, &mu](serve::MatchResponse response) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(std::move(response));
    };
    batch.push_back(std::move(pending));
  }
  service->HandleBatch(std::move(batch));
  ASSERT_EQ(responses.size(), 2u);
  for (const auto& response : responses) {
    if (response.id == 0) {
      EXPECT_EQ(response.status, serve::ResponseStatus::kDeadlineExceeded);
      EXPECT_TRUE(response.probs.empty());
    } else {
      EXPECT_EQ(response.status, serve::ResponseStatus::kOk);
    }
  }
  EXPECT_EQ(service->stats().expired, 1u);
}

TEST(MatchServiceTest, InfoJsonDescribesTheCatalog) {
  auto service = MakeService();
  const std::string info = service->InfoJson();
  EXPECT_NE(info.find("\"left_rows\""), std::string::npos);
  EXPECT_NE(info.find("\"DeepMatcher\""), std::string::npos);
  serve::MatchRequest request;
  request.id = 3;
  request.op = serve::RequestOp::kInfo;
  const serve::MatchResponse response = service->Score(request);
  EXPECT_EQ(response.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(response.info, info);
}

// --- daemon over TCP ---

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

serve::MatchResponse RoundTrip(int fd, const serve::MatchRequest& request) {
  EXPECT_TRUE(serve::WriteFrame(fd, serve::SerializeRequest(request)).ok());
  std::string payload;
  EXPECT_TRUE(serve::ReadFrame(fd, &payload).ok());
  auto parsed = serve::ParseMatchResponse(payload);
  EXPECT_TRUE(parsed.ok()) << payload;
  return parsed.ok() ? std::move(parsed).value() : serve::MatchResponse{};
}

class ServeDaemonTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::IgnoreSigPipe();  // a dying client must never SIGPIPE the suite
    EnsureSlowMatcherRegistered();
  }
};

TEST_F(ServeDaemonTest, ServesBitwiseIdenticalScoresOverTcp) {
  auto service = MakeService();
  serve::ServeDaemon daemon(service.get(), {/*port=*/0, {}});
  ASSERT_TRUE(daemon.Start().ok());
  ASSERT_GT(daemon.port(), 0);

  const std::vector<data::PairExample> pairs = SomePairs(8, 51);
  const int fd = ConnectLoopback(daemon.port());
  serve::MatchRequest request;
  request.id = 77;
  request.pairs = pairs;
  const serve::MatchResponse response = RoundTrip(fd, request);
  ::close(fd);
  EXPECT_EQ(response.id, 77u);
  ASSERT_EQ(response.status, serve::ResponseStatus::kOk);
  EXPECT_TRUE(BitwiseEqual(response.probs, OneShotReference(pairs)));

  daemon.Shutdown();
  daemon.Wait();
}

TEST_F(ServeDaemonTest, MalformedFramesAreRejectedWithoutCrashing) {
  auto service = MakeService();
  serve::ServeDaemon daemon(service.get(), {/*port=*/0, {}});
  ASSERT_TRUE(daemon.Start().ok());

  // Valid frame, garbage JSON: bad_request, connection stays usable.
  {
    const int fd = ConnectLoopback(daemon.port());
    ASSERT_TRUE(serve::WriteFrame(fd, "totally not json").ok());
    std::string payload;
    ASSERT_TRUE(serve::ReadFrame(fd, &payload).ok());
    auto parsed = serve::ParseMatchResponse(payload);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().status, serve::ResponseStatus::kBadRequest);
    serve::MatchRequest request;
    request.id = 5;
    request.pairs = SomePairs(2, 5);
    EXPECT_EQ(RoundTrip(fd, request).status, serve::ResponseStatus::kOk);
    ::close(fd);
  }

  // Nesting past the JSON depth cap: bad_request, connection stays usable.
  {
    const int fd = ConnectLoopback(daemon.port());
    ASSERT_TRUE(serve::WriteFrame(fd, std::string(30000, '[')).ok());
    std::string payload;
    ASSERT_TRUE(serve::ReadFrame(fd, &payload).ok());
    auto parsed = serve::ParseMatchResponse(payload);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().status, serve::ResponseStatus::kBadRequest);
    serve::MatchRequest request;
    request.id = 7;
    request.pairs = SomePairs(2, 7);
    EXPECT_EQ(RoundTrip(fd, request).status, serve::ResponseStatus::kOk);
    ::close(fd);
  }

  // Oversized frame header: answered once, then the connection closes.
  {
    const int fd = ConnectLoopback(daemon.port());
    const uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    ASSERT_TRUE(serve::WriteFull(fd, huge, 4));
    std::string payload;
    ASSERT_TRUE(serve::ReadFrame(fd, &payload).ok());
    auto parsed = serve::ParseMatchResponse(payload);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().status, serve::ResponseStatus::kBadRequest);
    EXPECT_EQ(serve::ReadFrame(fd, &payload).code(),
              core::StatusCode::kNotFound);
    ::close(fd);
  }

  // Truncated frame then disconnect: the daemon just moves on.
  {
    const int fd = ConnectLoopback(daemon.port());
    const uint8_t header[4] = {0, 0, 0, 50};
    ASSERT_TRUE(serve::WriteFull(fd, header, 4));
    ::close(fd);
  }

  // Still alive and serving.
  const int fd = ConnectLoopback(daemon.port());
  serve::MatchRequest request;
  request.id = 6;
  request.pairs = SomePairs(1, 6);
  EXPECT_EQ(RoundTrip(fd, request).status, serve::ResponseStatus::kOk);
  ::close(fd);

  daemon.Shutdown();
  daemon.Wait();
}

TEST_F(ServeDaemonTest, ClientKilledMidResponseDoesNotKillTheDaemon) {
  auto service = MakeService();
  serve::ServeDaemon daemon(service.get(), {/*port=*/0, {}});
  ASSERT_TRUE(daemon.Start().ok());

  // Fire requests and slam the connection shut without reading: the
  // scorer's response writes land on a dead socket (EPIPE). Repeat a few
  // times so at least one write genuinely races the disconnect.
  for (int round = 0; round < 5; ++round) {
    const int fd = ConnectLoopback(daemon.port());
    serve::MatchRequest request;
    request.id = static_cast<uint64_t>(round);
    request.pairs = SomePairs(16, static_cast<uint64_t>(round));
    ASSERT_TRUE(
        serve::WriteFrame(fd, serve::SerializeRequest(request)).ok());
    struct linger hard_close {1, 0};  // RST instead of graceful FIN
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close,
                 sizeof(hard_close));
    ::close(fd);
  }

  // The daemon must still answer a well-behaved client afterwards.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const int fd = ConnectLoopback(daemon.port());
  serve::MatchRequest request;
  request.id = 99;
  request.pairs = SomePairs(4, 99);
  EXPECT_EQ(RoundTrip(fd, request).status, serve::ResponseStatus::kOk);
  ::close(fd);

  daemon.Shutdown();
  daemon.Wait();
}

TEST_F(ServeDaemonTest, OverloadShedsWithExplicitStatus) {
  serve::MatchService::Config config;
  config.default_matcher = "SlowTest";
  EnsureSlowMatcherRegistered();
  auto service = MakeService(config);

  serve::ServeDaemon::Config daemon_config;
  daemon_config.port = 0;
  daemon_config.queue.capacity = 1;
  daemon_config.queue.max_batch = 1;
  serve::ServeDaemon daemon(service.get(), daemon_config);
  ASSERT_TRUE(daemon.Start().ok());

  // Pipeline several requests without reading; with a 1-deep queue and a
  // 200ms-per-sweep matcher, most must be shed with `overloaded`.
  const int fd = ConnectLoopback(daemon.port());
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    serve::MatchRequest request;
    request.id = static_cast<uint64_t>(i + 1);
    request.pairs = SomePairs(1, static_cast<uint64_t>(i));
    ASSERT_TRUE(
        serve::WriteFrame(fd, serve::SerializeRequest(request)).ok());
  }
  int ok = 0;
  int overloaded = 0;
  for (int i = 0; i < kRequests; ++i) {
    std::string payload;
    ASSERT_TRUE(serve::ReadFrame(fd, &payload).ok());
    auto parsed = serve::ParseMatchResponse(payload);
    ASSERT_TRUE(parsed.ok());
    if (parsed.value().status == serve::ResponseStatus::kOk) ++ok;
    if (parsed.value().status == serve::ResponseStatus::kOverloaded) {
      ++overloaded;
    }
  }
  ::close(fd);
  EXPECT_GE(ok, 1);
  EXPECT_GE(overloaded, 1);
  EXPECT_EQ(ok + overloaded, kRequests);
  EXPECT_EQ(daemon.queue_stats().shed,
            static_cast<uint64_t>(overloaded));

  daemon.Shutdown();
  daemon.Wait();
}

TEST_F(ServeDaemonTest, ExpiredDeadlineReturnsWithoutScoring) {
  serve::MatchService::Config config;
  config.default_matcher = "SlowTest";
  EnsureSlowMatcherRegistered();
  auto service = MakeService(config);

  serve::ServeDaemon::Config daemon_config;
  daemon_config.port = 0;
  daemon_config.queue.max_batch = 1;
  serve::ServeDaemon daemon(service.get(), daemon_config);
  ASSERT_TRUE(daemon.Start().ok());

  const int fd = ConnectLoopback(daemon.port());
  // Request 1 occupies the scorer for ~200ms; request 2's 1ms deadline
  // expires while queued and must come back unscored.
  serve::MatchRequest blocker;
  blocker.id = 1;
  blocker.pairs = SomePairs(1, 1);
  ASSERT_TRUE(
      serve::WriteFrame(fd, serve::SerializeRequest(blocker)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  serve::MatchRequest hurried;
  hurried.id = 2;
  hurried.pairs = SomePairs(1, 2);
  hurried.deadline_ms = 1;
  ASSERT_TRUE(
      serve::WriteFrame(fd, serve::SerializeRequest(hurried)).ok());

  bool saw_expired = false;
  for (int i = 0; i < 2; ++i) {
    std::string payload;
    ASSERT_TRUE(serve::ReadFrame(fd, &payload).ok());
    auto parsed = serve::ParseMatchResponse(payload);
    ASSERT_TRUE(parsed.ok());
    if (parsed.value().id == 2) {
      EXPECT_EQ(parsed.value().status,
                serve::ResponseStatus::kDeadlineExceeded);
      EXPECT_TRUE(parsed.value().probs.empty());
      saw_expired = true;
    }
  }
  ::close(fd);
  EXPECT_TRUE(saw_expired);
  EXPECT_EQ(service->stats().expired, 1u);

  daemon.Shutdown();
  daemon.Wait();
}

TEST_F(ServeDaemonTest, InfoOpAnswersInline) {
  auto service = MakeService();
  serve::ServeDaemon daemon(service.get(), {/*port=*/0, {}});
  ASSERT_TRUE(daemon.Start().ok());
  const int fd = ConnectLoopback(daemon.port());
  serve::MatchRequest request;
  request.id = 11;
  request.op = serve::RequestOp::kInfo;
  const serve::MatchResponse response = RoundTrip(fd, request);
  ::close(fd);
  EXPECT_EQ(response.status, serve::ResponseStatus::kOk);
  EXPECT_NE(response.info.find("left_rows"), std::string::npos);
  daemon.Shutdown();
  daemon.Wait();
}

TEST_F(ServeDaemonTest, GracefulDrainAnswersAdmittedWork) {
  serve::MatchService::Config config;
  config.default_matcher = "SlowTest";
  EnsureSlowMatcherRegistered();
  auto service = MakeService(config);
  serve::ServeDaemon::Config daemon_config;
  daemon_config.port = 0;
  daemon_config.queue.max_batch = 1;
  serve::ServeDaemon daemon(service.get(), daemon_config);
  ASSERT_TRUE(daemon.Start().ok());

  const int fd = ConnectLoopback(daemon.port());
  serve::MatchRequest first;
  first.id = 1;
  first.pairs = SomePairs(1, 1);
  ASSERT_TRUE(serve::WriteFrame(fd, serve::SerializeRequest(first)).ok());
  serve::MatchRequest second;
  second.id = 2;
  second.pairs = SomePairs(1, 2);
  ASSERT_TRUE(serve::WriteFrame(fd, serve::SerializeRequest(second)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Shutdown mid-flight: both admitted requests still get ok responses
  // (the write half of the connection survives the drain).
  daemon.Shutdown();
  int ok = 0;
  for (int i = 0; i < 2; ++i) {
    std::string payload;
    if (!serve::ReadFrame(fd, &payload).ok()) break;
    auto parsed = serve::ParseMatchResponse(payload);
    ASSERT_TRUE(parsed.ok());
    if (parsed.value().status == serve::ResponseStatus::kOk) ++ok;
  }
  ::close(fd);
  daemon.Wait();
  EXPECT_EQ(ok, 2);
}

}  // namespace
}  // namespace promptem
