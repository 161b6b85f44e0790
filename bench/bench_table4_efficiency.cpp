// Regenerates Table 4: training time and memory usage of the best
// baselines per category (SBERT, Rotom, TDmatch) against PromptEM and
// PromptEM- (without dynamic data pruning), then splits the two PromptEM
// runs into Algorithm 1's phases: teacher, MC-Dropout pseudo-labeling,
// student, and the student's DDP prunes. Also reproduces TDmatch's
// scalability blow-up by growing SEMI-REL with size_scale.

#include <vector>

#include "bench_util.h"
#include "core/mem_tracker.h"
#include "promptem/promptem.h"

int main() {
  using namespace promptem;
  const auto& lm = bench::SharedLM();
  baselines::RunOptions options = bench::DefaultRunOptions();

  bench::PrintHeader(
      "Table 4: Efficiency comparison (training time T. and tracked peak "
      "memory M.)",
      "PromptEM- = PromptEM without dynamic data pruning. Memory is live "
      "tensor/embedding bytes (stand-in for the paper's GPU memory).");

  const std::vector<baselines::Method> methods = {
      baselines::Method::kSentenceBert, baselines::Method::kRotom,
      baselines::Method::kTdMatch, baselines::Method::kPromptEMNoDDP,
      baselines::Method::kPromptEM};

  std::vector<std::string> header = {"Dataset"};
  for (auto m : methods) {
    std::string name = baselines::MethodName(m);
    if (m == baselines::Method::kPromptEMNoDDP) name = "PromptEM-";
    header.push_back(name + " T.");
    header.push_back(name + " M.");
  }
  core::TablePrinter table(header);
  // Student seconds include the prunes, which PromptEM- never runs.
  core::TablePrinter phases(
      {"Dataset", "PromptEM- teacher", "pseudo-label", "student",
       "PromptEM teacher", "pseudo-label", "student", "prune"});

  for (auto kind : data::AllBenchmarks()) {
    data::GemDataset ds = data::GenerateBenchmark(kind, bench::kSeed);
    data::LowResourceSplit split = bench::DefaultSplit(ds);
    const std::string abbrev = data::GetBenchmarkInfo(kind).abbrev;
    std::vector<std::string> row = {abbrev};
    std::vector<std::string> phase_row = {abbrev};
    for (auto method : methods) {
      if (method != baselines::Method::kPromptEM &&
          method != baselines::Method::kPromptEMNoDDP) {
        baselines::MethodResult r =
            baselines::RunMethod(method, lm, kind, ds, split, options);
        row.push_back(core::FormatDuration(r.train_seconds));
        row.push_back(core::FormatBytes(r.peak_memory_bytes));
        continue;
      }
      // The façade directly, for its phase timers: Run's wall time and
      // peak memory are what RunMethod's would be, less pair-encoder
      // construction.
      const em::PromptEM promptem(
          &lm, baselines::MakePromptEmConfig(method, options));
      const em::PromptEMResult r = promptem.Run(ds, split);
      row.push_back(core::FormatDuration(r.total_seconds));
      row.push_back(core::FormatBytes(r.peak_memory_bytes));
      phase_row.push_back(core::FormatDuration(r.stats.teacher_seconds));
      phase_row.push_back(
          core::FormatDuration(r.stats.pseudo_label_seconds));
      phase_row.push_back(core::FormatDuration(r.stats.student_seconds));
      if (method == baselines::Method::kPromptEM) {
        phase_row.push_back(core::FormatDuration(r.stats.prune_seconds));
      }
    }
    table.AddRow(std::move(row));
    phases.AddRow(std::move(phase_row));
    std::fprintf(stderr, "[table4] %s done\n",
                 data::GetBenchmarkInfo(kind).name);
  }
  table.Print();
  std::printf("\nPromptEM phases (student includes its prunes)\n");
  phases.Print();

  // Scalability: TDmatch's whole-graph random walks are quadratic-ish in
  // input size; the LM methods grow linearly in the labeled budget.
  std::printf("\nScalability on SEMI-REL (size_scale sweep)\n");
  core::TablePrinter scale_table(
      {"scale", "TDmatch T.", "TDmatch M.", "PromptEM T.", "PromptEM M."});
  for (double scale : {1.0, 2.0, 3.0}) {
    if (bench::FastMode() && scale > 1.0) break;
    data::BenchmarkGenOptions gen;
    gen.size_scale = scale;
    data::GemDataset ds =
        data::GenerateBenchmark(data::BenchmarkKind::kSemiRel, bench::kSeed,
                                gen);
    data::LowResourceSplit split = bench::DefaultSplit(ds);
    baselines::MethodResult td = baselines::RunMethod(
        baselines::Method::kTdMatch, lm, data::BenchmarkKind::kSemiRel, ds,
        split, options);
    baselines::MethodResult pe = baselines::RunMethod(
        baselines::Method::kPromptEM, lm, data::BenchmarkKind::kSemiRel, ds,
        split, options);
    scale_table.AddRow({core::StrFormat("%.0fx", scale),
                        core::FormatDuration(td.train_seconds),
                        core::FormatBytes(td.peak_memory_bytes),
                        core::FormatDuration(pe.train_seconds),
                        core::FormatBytes(pe.peak_memory_bytes)});
  }
  scale_table.Print();
  return 0;
}
