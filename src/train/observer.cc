#include "train/observer.h"

#include "core/log.h"
#include "core/string_util.h"
#include "data/json.h"
#include "data/record.h"

namespace promptem::train {

JsonlRunLogger::JsonlRunLogger(std::string path) : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "a");
  if (file_ == nullptr) {
    PROMPTEM_LOG(Warn) << "run-log: cannot open " << path_
                       << " for appending; epoch records are dropped";
  }
}

JsonlRunLogger::~JsonlRunLogger() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlRunLogger::OnLoopBegin(const RunMeta& meta) { meta_ = meta; }

void JsonlRunLogger::OnEpochEnd(const EpochStats& stats) {
  if (file_ == nullptr) return;
  // Strings go through the JSON serializer for escaping; numbers are
  // formatted directly so the log keeps full float precision.
  std::string line = "{";
  line += "\"run\": " + data::ToJson(data::Value::Str(meta_.run_name));
  line += ", \"dataset\": " + data::ToJson(data::Value::Str(meta_.dataset));
  line += core::StrFormat(", \"epoch\": %d", stats.epoch);
  line += core::StrFormat(", \"loss\": %.9g", stats.avg_loss);
  line += core::StrFormat(", \"samples\": %lld",
                          static_cast<long long>(stats.samples));
  if (stats.has_eval) {
    line += core::StrFormat(
        ", \"precision\": %.9g, \"recall\": %.9g, \"f1\": %.9g",
        stats.eval.Precision(), stats.eval.Recall(), stats.eval.F1());
  }
  line += core::StrFormat(", \"seconds\": %.6g", stats.seconds);
  line += core::StrFormat(", \"examples_per_sec\": %.6g",
                          stats.examples_per_sec);
  line += core::StrFormat(", \"seed\": %llu",
                          static_cast<unsigned long long>(meta_.seed));
  line +=
      ", \"config_hash\": " + data::ToJson(data::Value::Str(meta_.config_hash));
  line += "}\n";
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    PROMPTEM_LOG(Warn) << "run-log: cannot write to " << path_
                       << "; later epoch records are dropped";
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace promptem::train
