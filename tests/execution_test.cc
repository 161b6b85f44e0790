// Tests for the inference-mode execution engine: NoGradGuard semantics
// (no graph nodes, nesting, thread-locality under core::ParallelFor), the
// ScratchArena scratch allocator, the graph-free dropout fast path,
// MC-Dropout staying stochastic in eval mode, and parity between the
// unified batched scoring engine and the per-sample Probs loops it
// replaced. Runs under `ctest -L asan` in a -DPROMPTEM_SANITIZE=address
// build to shake out lifetime bugs in the arena deleter.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/deepmatcher.h"
#include "baselines/sentence_bert.h"
#include "baselines/tdmatch_star.h"
#include "core/hashing.h"
#include "core/mem_tracker.h"
#include "core/thread_pool.h"
#include "data/benchmarks.h"
#include "lm/pretrained_lm.h"
#include "promptem/finetune_model.h"
#include "promptem/prompt_model.h"
#include "promptem/scoring.h"
#include "promptem/uncertainty.h"
#include "tensor/arena.h"
#include "tensor/autograd.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "text/vocab.h"

namespace promptem {
namespace {

using em::EncodedPair;

// ---------------------------------------------------------------------------
// Fixtures: the committed tiny LM checkpoint and synthetic encoded pairs.
// ---------------------------------------------------------------------------

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

/// `n` random pairs whose sides hold 3 to 2 + `max_extra` tokens each.
std::vector<EncodedPair> SyntheticPairs(int n, uint64_t seed,
                                        int max_extra = 8) {
  const int vocab = FixtureLM().vocab().size();
  const int lo = text::SpecialTokens::kCount;
  core::Rng rng(seed);
  std::vector<EncodedPair> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EncodedPair p;
    const uint64_t extra = static_cast<uint64_t>(max_extra);
    const int left_len = 3 + static_cast<int>(rng.NextU64(extra));
    const int right_len = 3 + static_cast<int>(rng.NextU64(extra));
    for (int k = 0; k < left_len; ++k) {
      p.left_ids.push_back(
          lo + static_cast<int>(rng.NextU64(static_cast<uint64_t>(
                   vocab - lo))));
    }
    for (int k = 0; k < right_len; ++k) {
      p.right_ids.push_back(
          lo + static_cast<int>(rng.NextU64(static_cast<uint64_t>(
                   vocab - lo))));
    }
    p.label = static_cast<int>(rng.NextU64(2));
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<int> SyntheticIds(int n, uint64_t seed) {
  const int vocab = FixtureLM().vocab().size();
  const int lo = text::SpecialTokens::kCount;
  core::Rng rng(seed);
  std::vector<int> ids(static_cast<size_t>(n));
  for (int& id : ids) {
    id = lo + static_cast<int>(
                  rng.NextU64(static_cast<uint64_t>(vocab - lo)));
  }
  return ids;
}

// ---------------------------------------------------------------------------
// NoGradGuard semantics.
// ---------------------------------------------------------------------------

TEST(NoGradGuardTest, GuardsNestAndRestore) {
  EXPECT_TRUE(tensor::GradEnabled());
  {
    tensor::NoGradGuard outer;
    EXPECT_FALSE(tensor::GradEnabled());
    {
      tensor::NoGradGuard inner;
      EXPECT_FALSE(tensor::GradEnabled());
    }
    EXPECT_FALSE(tensor::GradEnabled());
  }
  EXPECT_TRUE(tensor::GradEnabled());
}

TEST(NoGradGuardTest, ThreadLocalUnderParallelFor) {
  core::SetNumThreads(3);
  // Chunk c runs on lane c % 3 and lane 0 is the calling thread, so with
  // the guard held by the caller, chunks 0 and 3 must see grad mode off
  // while the worker-lane chunks see their own (default-enabled) flag.
  std::vector<int> enabled(6, -1);
  {
    tensor::NoGradGuard guard;
    core::ParallelFor(0, 6, 1, [&](int64_t begin, int64_t end) {
      for (int64_t c = begin; c < end; ++c) {
        enabled[static_cast<size_t>(c)] = tensor::GradEnabled() ? 1 : 0;
        {
          tensor::NoGradGuard inner;
          if (tensor::GradEnabled()) enabled[static_cast<size_t>(c)] = -2;
        }
        // The inner guard must restore the chunk-entry state.
        const int now = tensor::GradEnabled() ? 1 : 0;
        if (now != enabled[static_cast<size_t>(c)]) {
          enabled[static_cast<size_t>(c)] = -3;
        }
      }
    });
    EXPECT_FALSE(tensor::GradEnabled());
  }
  EXPECT_TRUE(tensor::GradEnabled());
  EXPECT_EQ(enabled[0], 0);
  EXPECT_EQ(enabled[3], 0);
  for (int c : {1, 2, 4, 5}) {
    EXPECT_EQ(enabled[static_cast<size_t>(c)], 1) << "chunk " << c;
  }
  core::SetNumThreads(0);
}

TEST(NoGradGuardTest, TransformerForwardBuildsNoGraph) {
  core::Rng rng(5);
  auto encoder = FixtureLM().CloneEncoder(&rng);
  encoder->Eval();
  const std::vector<int> ids = SyntheticIds(12, 7);

  // Grad-enabled forward against trainable parameters builds a graph.
  {
    tensor::Tensor h = encoder->Encode(ids, &rng);
    EXPECT_TRUE(static_cast<bool>(h.impl()->backward_fn));
    EXPECT_FALSE(h.impl()->parents.empty());
  }

  const size_t before = core::MemTracker::CurrentBytes();
  {
    tensor::NoGradGuard guard;
    tensor::Tensor h = encoder->Encode(ids, &rng);
    EXPECT_FALSE(static_cast<bool>(h.impl()->backward_fn));
    EXPECT_TRUE(h.impl()->parents.empty());
    EXPECT_FALSE(h.impl()->requires_grad);
    EXPECT_EQ(h.impl()->grad, nullptr);
  }
  // Everything the guarded forward allocated died with it: no grad
  // buffers or retained closures keep storage alive.
  EXPECT_EQ(core::MemTracker::CurrentBytes(), before);
  for (const tensor::Tensor& p : encoder->Parameters()) {
    EXPECT_FALSE(p.has_grad());
  }
}

// ---------------------------------------------------------------------------
// ScratchArena.
// ---------------------------------------------------------------------------

TEST(ScratchArenaTest, SteadyStateIsAllocationFree) {
  core::Rng rng(3);
  auto encoder = FixtureLM().CloneEncoder(&rng);
  encoder->Eval();
  const std::vector<int> ids = SyntheticIds(16, 9);

  tensor::NoGradGuard no_grad;
  tensor::ScratchArena arena;
  tensor::ScratchArena::Scope scope(&arena);

  { tensor::Tensor h = encoder->Encode(ids, &rng); }
  const int64_t warm = arena.fresh_count();
  EXPECT_GT(warm, 0);

  // Identical shapes on the second pass: every buffer must come from the
  // freelist, so the fresh count stays flat.
  { tensor::Tensor h = encoder->Encode(ids, &rng); }
  EXPECT_EQ(arena.fresh_count(), warm);
  EXPECT_GT(arena.reuse_count(), 0);
  EXPECT_GT(arena.cached_buffers(), 0u);
}

TEST(ScratchArenaTest, ArenaForwardMatchesPlainForward) {
  core::Rng rng(4);
  auto encoder = FixtureLM().CloneEncoder(&rng);
  encoder->Eval();
  const std::vector<int> ids = SyntheticIds(10, 13);

  tensor::Tensor plain = encoder->Encode(ids, &rng);

  tensor::NoGradGuard no_grad;
  tensor::ScratchArena arena;
  tensor::ScratchArena::Scope scope(&arena);
  tensor::Tensor recycled = encoder->Encode(ids, &rng);
  // Warm pass, then a reuse pass over recycled (re-zeroed) buffers.
  recycled = encoder->Encode(ids, &rng);

  ASSERT_EQ(plain.numel(), recycled.numel());
  for (int64_t i = 0; i < plain.numel(); ++i) {
    EXPECT_EQ(plain.data()[i], recycled.data()[i]) << "element " << i;
  }
}

TEST(ScratchArenaTest, EscapedTensorsSurviveArenaDeath) {
  tensor::Tensor escaped;
  {
    tensor::NoGradGuard no_grad;
    tensor::ScratchArena arena;
    tensor::ScratchArena::Scope scope(&arena);
    escaped = tensor::ops::Add(tensor::Tensor::Full({4, 4}, 1.5f),
                               tensor::Tensor::Full({4, 4}, 0.5f));
  }
  // The arena is gone; the escaped buffer must have fallen back to plain
  // ownership (ASan validates the deleter path).
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) EXPECT_EQ(escaped.at(i, j), 2.0f);
  }
}

// ---------------------------------------------------------------------------
// Graph-free dropout fast path.
// ---------------------------------------------------------------------------

TEST(DropoutTest, GraphFreePathMatchesTrackedMask) {
  tensor::Tensor x = tensor::Tensor::Full({256}, 1.0f,
                                          /*requires_grad=*/true);
  core::Rng tracked_rng(9);
  tensor::Tensor tracked = tensor::ops::Dropout(x, 0.3f, &tracked_rng);
  EXPECT_TRUE(static_cast<bool>(tracked.impl()->backward_fn));

  core::Rng fast_rng(9);
  tensor::NoGradGuard guard;
  tensor::Tensor fast = tensor::ops::Dropout(x, 0.3f, &fast_rng);
  EXPECT_FALSE(static_cast<bool>(fast.impl()->backward_fn));
  EXPECT_TRUE(fast.impl()->parents.empty());

  // Same seed => identical Bernoulli draw sequence => identical mask.
  int zeros = 0;
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(tracked.at(i), fast.at(i)) << "element " << i;
    if (fast.at(i) == 0.0f) ++zeros;
  }
  EXPECT_GT(zeros, 0);
  EXPECT_LT(zeros, 256);
}

// ---------------------------------------------------------------------------
// Train/eval execution modes.
// ---------------------------------------------------------------------------

TEST(ExecutionModesTest, TrainAndEvalForwardsMatchWithoutDropout) {
  nn::TransformerConfig config;
  config.vocab_size = 64;
  config.dim = 16;
  config.num_layers = 2;
  config.num_heads = 2;
  config.ffn_dim = 32;
  config.max_seq_len = 32;
  config.dropout = 0.0f;
  core::Rng init_rng(21);
  nn::TransformerEncoder encoder(config, &init_rng);
  std::vector<int> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(text::SpecialTokens::kCount + (i % 40));
  }

  encoder.Train();
  core::Rng train_rng(0);
  tensor::Tensor train_h = encoder.Encode(ids, &train_rng);
  EXPECT_TRUE(static_cast<bool>(train_h.impl()->backward_fn));

  encoder.Eval();
  tensor::NoGradGuard guard;
  tensor::ScratchArena arena;
  tensor::ScratchArena::Scope scope(&arena);
  core::Rng eval_rng(0);
  tensor::Tensor eval_h = encoder.Encode(ids, &eval_rng);
  EXPECT_FALSE(static_cast<bool>(eval_h.impl()->backward_fn));

  // With dropout at zero the two execution modes are numerically the same
  // computation; the refactor must keep them bitwise identical.
  ASSERT_EQ(train_h.numel(), eval_h.numel());
  for (int64_t i = 0; i < train_h.numel(); ++i) {
    EXPECT_EQ(train_h.data()[i], eval_h.data()[i]) << "element " << i;
  }
}

TEST(ExecutionModesTest, McDropoutStaysStochasticInEval) {
  core::Rng rng(31);
  em::FinetuneModel model(FixtureLM(), &rng);
  model.Eval();
  const EncodedPair x = SyntheticPairs(1, 17)[0];

  core::Rng mc_rng(5);
  const em::McEstimate est = em::McDropoutEstimate(&model, x, 12, &mc_rng);
  // The fixture encoder has dropout 0.1: passes must differ even though
  // the model sat in eval mode (ScopedTrainingMode re-enables dropout
  // under the scoring engine's NoGradGuard).
  EXPECT_GT(est.uncertainty, 0.0f);
  // The model's mode is restored afterwards...
  EXPECT_FALSE(model.training());
  // ...and plain eval scoring stays deterministic (rng never consulted).
  core::Rng ra(1), rb(2);
  const auto pa = model.Probs(x, &ra);
  const auto pb = model.Probs(x, &rb);
  EXPECT_EQ(pa[0], pb[0]);
  EXPECT_EQ(pa[1], pb[1]);
}

// ---------------------------------------------------------------------------
// Unified scoring engine parity.
// ---------------------------------------------------------------------------

void ExpectEngineMatchesSequential(em::PairClassifier* model,
                                   const std::vector<EncodedPair>& xs) {
  // The pre-refactor path: eval mode, one Probs call per sample.
  model->AsModule()->Eval();
  std::vector<em::ProbPair> sequential;
  core::Rng unused(0);
  sequential.reserve(xs.size());
  for (const auto& x : xs) sequential.push_back(model->Probs(x, &unused));

  for (int threads : {1, 3, 4}) {
    core::SetNumThreads(threads);
    const std::vector<em::ProbPair> batched = em::ScoreBatch(model, xs);
    ASSERT_EQ(batched.size(), sequential.size());
    for (size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(batched[i][0], sequential[i][0]) << "sample " << i;
      EXPECT_EQ(batched[i][1], sequential[i][1]) << "sample " << i;
    }
  }
  core::SetNumThreads(0);
}

TEST(EngineParityTest, FinetuneModel) {
  core::Rng rng(41);
  em::FinetuneModel model(FixtureLM(), &rng);
  ExpectEngineMatchesSequential(&model, SyntheticPairs(13, 1));
}

TEST(EngineParityTest, PromptModel) {
  core::Rng rng(42);
  em::PromptModel model(FixtureLM(), em::PromptModelConfig{}, &rng);
  ExpectEngineMatchesSequential(&model, SyntheticPairs(13, 2));
}

TEST(EngineParityTest, PromptModelAcrossSweepSizes) {
  // Sweeps of one pair, around one 8-pair request, and one spread over
  // many chunks per lane.
  core::Rng rng(46);
  em::PromptModel model(FixtureLM(), em::PromptModelConfig{}, &rng);
  for (int n : {1, 7, 8, 9, 513}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    ExpectEngineMatchesSequential(&model,
                                  SyntheticPairs(n, static_cast<uint64_t>(n)));
  }
}

TEST(EngineParityTest, SentenceBertModel) {
  core::Rng rng(43);
  baselines::SentenceBertModel model(FixtureLM(), &rng);
  ExpectEngineMatchesSequential(&model, SyntheticPairs(13, 3));
}

TEST(EngineParityTest, DeepMatcherModel) {
  core::Rng rng(44);
  baselines::DeepMatcherModel model(FixtureLM().vocab(), /*embed_dim=*/16,
                                    /*hidden_dim=*/16, &rng);
  ExpectEngineMatchesSequential(&model, SyntheticPairs(13, 4));
}

TEST(EngineParityTest, PredictionsIndependentOfPriorMode) {
  core::Rng rng(45);
  em::FinetuneModel model(FixtureLM(), &rng);
  const std::vector<EncodedPair> xs = SyntheticPairs(11, 5);

  model.Train();
  const std::vector<int> from_train_state = em::PredictLabels(&model, xs);
  EXPECT_FALSE(model.training());  // the engine switched it to eval
  const std::vector<int> from_eval_state = em::PredictLabels(&model, xs);
  EXPECT_EQ(from_train_state, from_eval_state);
}

// ---------------------------------------------------------------------------
// Cross-commit scoring golden.
// ---------------------------------------------------------------------------

/// FNV-1a over the bits of every probability ScoreBatch returns for xs.
uint64_t ScoreDigest(em::PairClassifier* model,
                     const std::vector<EncodedPair>& xs) {
  uint64_t hash = core::kFnv1aOffset;
  for (const em::ProbPair& p : em::ScoreBatch(model, xs)) {
    hash = core::Fnv1a64(p.data(), sizeof(p), hash);
  }
  return hash;
}

// The AVX2 kernels' scalar tails are plain multiply-adds, which the
// compiler may fuse into FMAs; sanitizer instrumentation changes which
// ones it fuses, so AVX2 bits differ between a sanitizer build and an
// uninstrumented one. The scalar table is compiled without FMA and has
// nothing to fuse.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerBuild = true;
#else
constexpr bool kSanitizerBuild = false;
#endif

/// Expects `digest()` to equal the pinned value of each kernel variant
/// (the AVX2 value in uninstrumented builds only; sanitizer builds still
/// run the AVX2 sweep). Without AVX2 support the AVX2 request runs the
/// scalar kernels, so it must reproduce the scalar digest.
void ExpectDigests(const std::function<uint64_t()>& digest,
                   uint64_t scalar_digest, uint64_t avx2_digest) {
  using tensor::kernels::KernelVariant;
  for (KernelVariant v : {KernelVariant::kScalar, KernelVariant::kAvx2}) {
    tensor::kernels::ScopedKernelVariant scoped(v);
    const KernelVariant active = tensor::kernels::ActiveKernelVariant();
    SCOPED_TRACE(tensor::kernels::KernelVariantName(active));
    const uint64_t value = digest();
    if (active == KernelVariant::kScalar) {
      EXPECT_EQ(value, scalar_digest);
    } else if (!kSanitizerBuild) {
      EXPECT_EQ(value, avx2_digest);
    }
  }
}

void ExpectScoreDigests(em::PairClassifier* model,
                        const std::vector<EncodedPair>& xs,
                        uint64_t scalar_digest, uint64_t avx2_digest) {
  ExpectDigests([&] { return ScoreDigest(model, xs); }, scalar_digest,
                avx2_digest);
}

// Pins the eval probabilities of both LM matchers across commits. The
// engine parity tests compare ScoreBatch with per-pair Probs, and both
// run the same forward, so only a golden value catches a forward that
// drifts from the one it replaced. Pair lengths reach the fixture's
// 96-token limit, so attention runs over one to three row and key tiles.
TEST(ScoringGoldenTest, PromptModelProbsAreStable) {
  core::Rng rng(42);
  em::PromptModel model(FixtureLM(), em::PromptModelConfig{}, &rng);
  ExpectScoreDigests(&model, SyntheticPairs(513, 513, /*max_extra=*/48),
                     7657674785503793075ull, 11957171583823380660ull);
}

TEST(ScoringGoldenTest, FinetuneModelProbsAreStable) {
  core::Rng rng(41);
  em::FinetuneModel model(FixtureLM(), &rng);
  ExpectScoreDigests(&model, SyntheticPairs(513, 514, /*max_extra=*/48),
                     14564873473536089192ull, 2234172089590757710ull);
}

/// FNV-1a over the bits of every estimate McDropoutEstimateBatch returns
/// for xs, then of every McEl2nScoreBatch score, both at the paper's
/// K = 10 passes and drawing their seeds from one stream.
uint64_t McDigest(em::PairClassifier* model,
                  const std::vector<EncodedPair>& xs) {
  core::Rng rng(2022);
  uint64_t hash = core::kFnv1aOffset;
  for (const em::McEstimate& e :
       em::McDropoutEstimateBatch(model, xs, /*passes=*/10, &rng)) {
    hash = core::Fnv1a64(&e.mean_pos_prob, sizeof(float), hash);
    hash = core::Fnv1a64(&e.uncertainty, sizeof(float), hash);
    hash = core::Fnv1a64(&e.pseudo_label, sizeof(int), hash);
    hash = core::Fnv1a64(&e.confidence, sizeof(float), hash);
  }
  for (const float score :
       em::McEl2nScoreBatch(model, xs, /*passes=*/10, &rng)) {
    hash = core::Fnv1a64(&score, sizeof(float), hash);
  }
  return hash;
}

// Pins the MC-Dropout passes of both LM matchers across commits: every
// dropout mask, in draw order, and every pass's probabilities. The model
// starts in eval mode, as after training, so the passes' training-mode
// switch is exercised too.
TEST(McGoldenTest, PromptModelPassesAreStable) {
  core::Rng rng(47);
  em::PromptModel model(FixtureLM(), em::PromptModelConfig{}, &rng);
  model.Eval();
  const std::vector<EncodedPair> xs =
      SyntheticPairs(40, 515, /*max_extra=*/48);
  ExpectDigests([&] { return McDigest(&model, xs); },
                16547008764581694460ull, 4327785996703987682ull);
}

TEST(McGoldenTest, FinetuneModelPassesAreStable) {
  core::Rng rng(48);
  em::FinetuneModel model(FixtureLM(), &rng);
  model.Eval();
  const std::vector<EncodedPair> xs =
      SyntheticPairs(40, 516, /*max_extra=*/48);
  ExpectDigests([&] { return McDigest(&model, xs); },
                3828989182682368086ull, 1700043747192147371ull);
}

TEST(EngineParityTest, TdMatchStarStableAcrossThreadCounts) {
  data::BenchmarkGenOptions small;
  small.size_scale = 0.3;
  data::GemDataset ds =
      data::GenerateBenchmark(data::BenchmarkKind::kRelHeter, 11, small);
  baselines::TdMatchGraph graph(ds);
  graph.ComputeAllEmbeddings();
  core::Rng rng(10);
  baselines::TdMatchStar star(&graph, /*embedding_dim=*/16, /*seed=*/42,
                              &rng);
  star.Train(ds.train, /*epochs=*/3, /*lr=*/5e-3f, &rng);

  core::SetNumThreads(1);
  const std::vector<int> single = star.Predict(ds.test);
  core::SetNumThreads(3);
  const std::vector<int> pooled = star.Predict(ds.test);
  core::SetNumThreads(0);
  EXPECT_EQ(single, pooled);
  EXPECT_EQ(single.size(), ds.test.size());
}

}  // namespace
}  // namespace promptem
