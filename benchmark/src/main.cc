// promptem_bench — the repository benchmark program. Run it through
// benchmark/run.sh, which builds it, passes the build paths, and starts
// one process per workload:
//
//   benchmark/run.sh --seed S [--workload W] [--trace [0|1]] [--smoke]
//
// One process runs one workload, so a process-wide peak (VmHWM) belongs
// to that workload alone. Every metric is printed by name with its unit;
// the last line of standard output is the JSON result. Exit status 1 when
// any correctness check failed, 2 on bad usage.

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "baselines/matchers.h"
#include "bench.h"
#include "core/log.h"
#include "core/signals.h"
#include "core/string_util.h"
#include "core/thread_pool.h"
#include "tensor/kernels.h"
#include "trace.h"

namespace promptem::bench {

namespace {

const char* const kWorkloads[] = {"serve_uniform", "serve_hot", "table_match",
                                  "incremental_delta"};

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one (see README.md for what each means per workload).
std::vector<MetricSpec> EndToEndMetrics() {
  return {{"setup_s", "s"},   {"peak_rss_mb", "MB"},
          {"p50_ms", "ms"},   {"p90_ms", "ms"},
          {"pairs_per_s", "pairs/s"}, {"f1", "pct"}};
}

/// Per-layer metrics of the traced run: four per reported span, then the
/// counters. A layer a workload does not exercise reads 0.
std::vector<MetricSpec> PerLayerMetrics() {
  std::vector<MetricSpec> specs;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    const Layer layer = static_cast<Layer>(l);
    if (!LayerReported(layer)) continue;
    const std::string name = LayerName(layer);
    specs.push_back({name + ".calls", "count"});
    specs.push_back({name + ".self_ms", "ms"});
    specs.push_back({name + ".p50_us", "us"});
    specs.push_back({name + ".p99_us", "us"});
  }
  const MetricSpec counters[] = {
      {"serve.batch_pairs.mean", "pairs"},
      {"serve.batch_pairs.p99", "pairs"},
      {"serve.sweeps", "count"},
      {"serve.shed", "count"},
      {"serve.expired", "count"},
      {"serve.score_hit_ratio", "ratio"},
      {"data.candidates", "count"},
      {"data.candidates_per_left", "pairs"},
      {"data.completeness", "ratio"},
      {"data.capped_probes", "count"},
      {"data.index_ram_mb", "MB"},
      {"promptem.pairs_scored", "count"},
      {"promptem.encode_memo_hit_ratio", "ratio"},
      {"pipeline.rescored", "count"},
      {"pipeline.reused", "count"},
      {"pipeline.reuse_ratio", "ratio"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
  };
  specs.insert(specs.end(), std::begin(counters), std::end(counters));
  return specs;
}

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "%s\nusage: promptem_bench --seed S --workload W "
               "[--trace [0|1]] [--smoke] --root DIR --serve-bin PATH "
               "--work-dir DIR\n",
               problem.c_str());
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  bool seeded = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage("missing value for " + arg);
      return argv[++i];
    };
    long long parsed = 0;
    if (arg == "--workload") {
      options.workload = next();
    } else if (arg == "--seed") {
      if (!core::ParseInt64(next(), &parsed) || parsed < 0) {
        Usage("--seed takes a non-negative integer");
      }
      options.seed = static_cast<uint64_t>(parsed);
      seeded = true;
    } else if (arg == "--seconds") {
      // Benchmark harnesses pass BENCHMARK.json's run_seconds back; the
      // run length itself is fixed (kRunSeconds), so only that value is
      // accepted.
      if (!core::ParseInt64(next(), &parsed) || parsed != kRunSeconds) {
        Usage("--seconds must be " + std::to_string(kRunSeconds) +
              ", the recorded run length");
      }
    } else if (arg == "--trace") {
      // "--trace 0|1" or a bare "--trace".
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                           std::strcmp(argv[i + 1], "1") == 0)) {
        options.trace = argv[++i][0] == '1';
      } else {
        options.trace = true;
      }
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--root") {
      options.root = next();
    } else if (arg == "--serve-bin") {
      options.serve_bin = next();
    } else if (arg == "--work-dir") {
      options.work_dir = next();
    } else {
      Usage("unknown flag " + arg);
    }
  }
  if (!seeded) Usage("--seed is required");
  if (options.root.empty() || options.serve_bin.empty() ||
      options.work_dir.empty()) {
    Usage("--root, --serve-bin and --work-dir are required (run.sh sets them)");
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || options.workload == w;
  if (!known) Usage("--workload takes one of the four workloads");
  return options;
}

std::string CpuModel() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = core::Trim(colon + 1);
        break;
      }
    }
  }
  std::fclose(f);
  return model;
}

/// Adds the span aggregates and trace.* counters, and checks that the
/// spans account for the traced wall time.
void AddTraceMetrics(const Tracer& tracer, RunResult* result) {
  const TraceSummary summary = Summarize(tracer);
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    const Layer layer = static_cast<Layer>(l);
    if (!LayerReported(layer)) continue;
    const auto& stats = summary.layers[static_cast<size_t>(l)];
    const std::string name = LayerName(layer);
    result->Add(name + ".calls", static_cast<double>(stats.calls), "count");
    result->Add(name + ".self_ms", stats.self_ms, "ms");
    result->Add(name + ".p50_us", stats.p50_us, "us");
    result->Add(name + ".p99_us", stats.p99_us, "us");
  }
  result->Add("trace.coverage", summary.coverage, "ratio");
  result->Add("trace.overhead", summary.overhead, "ratio");
  std::printf("trace: %zu spans, coverage %.4f, overhead %.5f\n",
              summary.spans, summary.coverage, summary.overhead);
  result->Check(summary.coverage >= 0.95,
                "layer spans cover within 5% of the traced wall time");
}

/// Prints every metric of `specs` by name and unit, the failed checks,
/// and the final JSON line. A missing end-to-end metric is an error;
/// a per-layer metric the workload does not exercise reads 0.
bool Report(const std::string& workload, const RunResult& result,
            const std::vector<MetricSpec>& specs, bool zero_if_missing) {
  bool correct = result.correct();
  std::string json = "{";
  for (const MetricSpec& spec : specs) {
    const RunResult::Metric* metric = result.Find(spec.name);
    double value = 0.0;
    if (metric != nullptr && metric->unit == spec.unit) {
      value = metric->value;
    } else if (!zero_if_missing || metric != nullptr) {
      std::printf("check FAILED: %s did not report %s in %s\n",
                  workload.c_str(), spec.name.c_str(), spec.unit.c_str());
      correct = false;
    }
    std::printf("metric %s %s = %s %s\n", workload.c_str(), spec.name.c_str(),
                FormatNumber(value).c_str(), spec.unit.c_str());
    if (json.size() > 1) json += ",";
    json += "\"" + spec.name + "\":{\"value\":" + FormatNumber(value) +
            ",\"unit\":\"" + spec.unit + "\"}";
  }
  json += "}";
  for (const std::string& failure : result.failures()) {
    std::printf("check FAILED: %s\n", failure.c_str());
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(
                  result.attempted, 1)),
              static_cast<unsigned long long>(result.failed), json.c_str());
  std::fflush(stdout);
  return correct;
}

bool RunWorkload(const Options& options, const std::string& workload) {
  Tracer tracer(options.trace);
  std::printf(
      "run workload=%s seed=%llu seconds=%d trace=%d smoke=%d nproc=%ld "
      "threads=%d cpu=\"%s\" kernel_variant=%s build_type=%s\n",
      workload.c_str(), static_cast<unsigned long long>(options.seed),
      kRunSeconds, options.trace ? 1 : 0, options.smoke ? 1 : 0,
      ::sysconf(_SC_NPROCESSORS_ONLN), core::GetNumThreads(),
      CpuModel().c_str(),
      tensor::kernels::KernelVariantName(
          tensor::kernels::ActiveKernelVariant()),
      PROMPTEM_BENCH_BUILD_TYPE);
  std::fflush(stdout);

  RunResult result;
  if (workload == "serve_uniform" || workload == "serve_hot") {
    result = RunServeWorkload(options, workload == "serve_hot", &tracer);
  } else if (workload == "table_match") {
    result = RunTableMatch(options, &tracer);
  } else {
    result = RunIncrementalDelta(options, &tracer);
  }
  if (!options.trace) {
    return Report(workload, result, EndToEndMetrics(),
                  /*zero_if_missing=*/false);
  }
  AddTraceMetrics(tracer, &result);
  if (!options.smoke) {
    const std::string path =
        options.work_dir + "/" + workload + "/trace.jsonl";
    if (tracer.WriteJsonl(path)) std::printf("trace: wrote %s\n", path.c_str());
  }
  return Report(workload, result, PerLayerMetrics(), /*zero_if_missing=*/true);
}

}  // namespace

}  // namespace promptem::bench

int main(int argc, char** argv) {
  using namespace promptem;
  core::IgnoreSigPipe();
  core::SetLogLevel(core::LogLevel::kWarn);
  baselines::EnsureBaselineMatchersRegistered();
  const bench::Options options = bench::ParseOptions(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  return bench::RunWorkload(options, options.workload) ? 0 : 1;
}
