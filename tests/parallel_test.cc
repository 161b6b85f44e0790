// Tests for the thread-pool runtime: ParallelFor semantics (index
// coverage, nesting, exception propagation, pool-size-1 inlining) and the
// bitwise-determinism contract — kernels, MC-Dropout estimates, and whole
// training runs must produce identical bits for every pool size. This is
// also the suite to run under TSan (ctest -L tsan in a
// -DPROMPTEM_SANITIZE=thread build).

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/deepmatcher.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "promptem/trainer.h"
#include "promptem/uncertainty.h"
#include "tensor/kernels.h"

namespace promptem {
namespace {

/// RAII pool-size override; restores the environment default afterwards so
/// tests do not leak their pool configuration into each other.
class ScopedPoolSize {
 public:
  explicit ScopedPoolSize(int n) { core::SetNumThreads(n); }
  ~ScopedPoolSize() { core::SetNumThreads(0); }
};

// ---------------------------------------------------------------------------
// ParallelFor semantics.
// ---------------------------------------------------------------------------

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ScopedPoolSize pool(4);
  constexpr int64_t kBegin = 3;
  constexpr int64_t kEnd = 1003;
  std::vector<std::atomic<int>> hits(kEnd);
  for (auto& h : hits) h.store(0);
  core::ParallelFor(kBegin, kEnd, 7, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (int64_t i = 0; i < kBegin; ++i) EXPECT_EQ(hits[i].load(), 0);
  for (int64_t i = kBegin; i < kEnd; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForTest, NonPositiveGrainIsOneChunk) {
  ScopedPoolSize pool(4);
  std::atomic<int> calls{0};
  core::ParallelFor(0, 100, 0, [&](int64_t begin, int64_t end) {
    calls.fetch_add(1);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 100);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelForTest, EmptyRangeNeverCallsBody) {
  ScopedPoolSize pool(4);
  std::atomic<int> calls{0};
  core::ParallelFor(5, 5, 1, [&](int64_t, int64_t) { calls.fetch_add(1); });
  core::ParallelFor(7, 3, 1, [&](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, PoolSizeOneRunsInlineOnCallingThread) {
  ScopedPoolSize pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> total{0};
  core::ParallelFor(0, 64, 4, [&](int64_t begin, int64_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelForTest, NestedParallelForRunsInline) {
  ScopedPoolSize pool(4);
  std::atomic<int> inner_total{0};
  core::ParallelFor(0, 8, 1, [&](int64_t, int64_t) {
    const std::thread::id outer_thread = std::this_thread::get_id();
    core::ParallelFor(0, 32, 4, [&](int64_t begin, int64_t end) {
      // The nested region must stay on the chunk's own thread.
      EXPECT_EQ(std::this_thread::get_id(), outer_thread);
      inner_total.fetch_add(static_cast<int>(end - begin));
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 32);
}

TEST(ParallelForTest, LowestFailingChunkIsRethrown) {
  ScopedPoolSize pool(4);
  try {
    core::ParallelFor(0, 100, 10, [&](int64_t begin, int64_t) {
      if (begin == 30 || begin == 70) {
        throw std::runtime_error(std::to_string(begin));
      }
    });
    FAIL() << "expected the chunk exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "30");
  }
  // The pool must survive a failed job.
  std::atomic<int> total{0};
  core::ParallelFor(0, 100, 10, [&](int64_t begin, int64_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 100);
}

// ---------------------------------------------------------------------------
// Bitwise determinism across pool sizes.
// ---------------------------------------------------------------------------

/// Runs `fn` under pool sizes 1 and 4 and returns both results.
template <typename Fn>
auto UnderBothPoolSizes(const Fn& fn) {
  core::SetNumThreads(1);
  auto single = fn();
  core::SetNumThreads(4);
  auto pooled = fn();
  core::SetNumThreads(0);
  return std::make_pair(std::move(single), std::move(pooled));
}

TEST(DeterminismTest, GemmBitwiseIdenticalAcrossPoolSizes) {
  // Gemm runs on the calling thread; a 128^3 product at pool sizes 1 and
  // 4 pins that no lane count reaches its bits.
  constexpr int kN = 128;
  std::vector<float> a(kN * kN);
  std::vector<float> b(kN * kN);
  core::Rng rng(13);
  for (auto& v : a) v = rng.Uniform(-1.0f, 1.0f);
  for (auto& v : b) v = rng.Uniform(-1.0f, 1.0f);
  auto run = [&]() {
    std::vector<float> c(kN * kN, 0.0f);
    tensor::kernels::Gemm(false, false, kN, kN, kN, 1.0f, a.data(),
                          b.data(), 0.0f, c.data());
    return c;
  };
  auto [single, pooled] = UnderBothPoolSizes(run);
  EXPECT_EQ(0, std::memcmp(single.data(), pooled.data(),
                           single.size() * sizeof(float)));
}

/// A tiny vocabulary + synthetic encoded pairs (no pre-trained LM needed):
/// matching pairs share their id prefix, mismatches do not.
text::Vocab TestVocab() {
  text::Vocab vocab;
  for (char c = 'a'; c <= 'z'; ++c) vocab.AddToken(std::string(1, c));
  return vocab;
}

std::vector<em::EncodedPair> SyntheticPairs(const text::Vocab& vocab,
                                            int count, uint64_t seed) {
  core::Rng rng(seed);
  std::vector<em::EncodedPair> pairs;
  pairs.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    em::EncodedPair x;
    x.label = i % 2;
    for (int t = 0; t < 6; ++t) {
      const int id =
          5 + static_cast<int>(rng.NextU64() % (vocab.size() - 5));
      x.left_ids.push_back(id);
      x.right_ids.push_back(x.label == 1 ? id : 5 + (id - 4) %
                                                     (vocab.size() - 5));
    }
    pairs.push_back(std::move(x));
  }
  return pairs;
}

TEST(DeterminismTest, McEstimatesIdenticalAcrossPoolSizes) {
  const text::Vocab vocab = TestVocab();
  const auto pairs = SyntheticPairs(vocab, 6, 21);
  auto run = [&]() {
    core::Rng model_rng(7);
    baselines::DeepMatcherModel model(vocab, /*embed_dim=*/8,
                                      /*hidden_dim=*/4, &model_rng);
    core::Rng mc_rng(5);
    return em::McDropoutEstimateBatch(&model, pairs, /*passes=*/4, &mc_rng);
  };
  auto [single, pooled] = UnderBothPoolSizes(run);
  ASSERT_EQ(single.size(), pooled.size());
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].mean_pos_prob, pooled[i].mean_pos_prob);
    EXPECT_EQ(single[i].uncertainty, pooled[i].uncertainty);
    EXPECT_EQ(single[i].pseudo_label, pooled[i].pseudo_label);
    EXPECT_EQ(single[i].confidence, pooled[i].confidence);
  }
}

TEST(DeterminismTest, TrainingBitwiseIdenticalAcrossPoolSizes) {
  const text::Vocab vocab = TestVocab();
  const auto train = SyntheticPairs(vocab, 24, 31);
  const auto valid = SyntheticPairs(vocab, 8, 41);
  train::LoopOptions options;
  options.epochs = 2;
  options.batch_size = 4;
  options.seed = 17;
  auto run = [&]() {
    core::Rng model_rng(7);
    baselines::DeepMatcherModel model(vocab, /*embed_dim=*/8,
                                      /*hidden_dim=*/4, &model_rng);
    train::LoopResult result =
        em::TrainClassifier(&model, train, valid, options);
    return std::make_pair(train::SnapshotModuleParams(model),
                          result.best_eval.F1());
  };
  auto [single, pooled] = UnderBothPoolSizes(run);
  EXPECT_EQ(single.second, pooled.second);  // identical validation F1
  ASSERT_EQ(single.first.size(), pooled.first.size());
  for (size_t p = 0; p < single.first.size(); ++p) {
    ASSERT_EQ(single.first[p].size(), pooled.first[p].size());
    EXPECT_EQ(0, std::memcmp(single.first[p].data(), pooled.first[p].data(),
                             single.first[p].size() * sizeof(float)))
        << "parameter " << p << " diverged across pool sizes";
  }
}

}  // namespace
}  // namespace promptem
