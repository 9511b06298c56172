#include "fingerprint.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "obs/metrics.h"
#include "sqlgraph/schema.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PERFBENCH_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define PERFBENCH_TSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define PERFBENCH_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define PERFBENCH_TSAN 1
#endif

namespace perfbench {

namespace {

std::string CpuModel() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* colon = std::strchr(line, ':');
    if (colon == nullptr) break;
    model = colon + 1;
    while (!model.empty() && (model.front() == ' ' || model.front() == '\t')) {
      model.erase(model.begin());
    }
    while (!model.empty() && (model.back() == '\n' || model.back() == ' ')) {
      model.pop_back();
    }
    break;
  }
  std::fclose(f);
  return model;
}

}  // namespace

sqlgraph::json::JsonValue Fingerprint::ToJson() const {
  sqlgraph::json::JsonValue out = sqlgraph::json::JsonValue::Object();
  out.Set("cpu_model", cpu_model);
  out.Set("nproc", static_cast<int64_t>(nproc));
  out.Set("compiler", compiler);
  out.Set("build_type", build_type);
  out.Set("git_sha", git_sha);
  out.Set("source_digest", source_digest);
  out.Set("SQLGRAPH_METRICS", sqlgraph_metrics);
  out.Set("metrics_enabled", metrics_enabled);
  out.Set("verify_plans", verify_plans);
  out.Set("verify_on_recovery", verify_on_recovery);
  out.Set("assertions", assertions);
  out.Set("sanitizer", sanitizer);
  return out;
}

Fingerprint TakeFingerprint(const Options& options) {
  Fingerprint fp;
  fp.cpu_model = CpuModel();
  fp.nproc = std::thread::hardware_concurrency();
  fp.compiler = PERFBENCH_COMPILER;
  fp.build_type = PERFBENCH_BUILD_TYPE;
  fp.git_sha = options.git_sha;
  fp.source_digest = options.source_digest;
  const char* env = std::getenv("SQLGRAPH_METRICS");
  fp.sqlgraph_metrics = env != nullptr ? env : "unset";
  fp.metrics_enabled = sqlgraph::obs::MetricsEnabled();
  const sqlgraph::core::StoreConfig defaults;
  fp.verify_plans = defaults.verify_plans;
  fp.verify_on_recovery = defaults.verify_on_recovery;
#ifndef NDEBUG
  fp.assertions = true;
#endif
  fp.sanitizer = "none";
#if defined(PERFBENCH_ASAN)
  fp.sanitizer = "address";
#elif defined(PERFBENCH_TSAN)
  fp.sanitizer = "thread";
#endif
  return fp;
}

std::string RefusalReason(const Fingerprint& fp) {
  if (fp.build_type != "Release") {
    return "build type is '" + fp.build_type + "', not Release";
  }
  if (fp.assertions) return "assertions are on (NDEBUG not defined)";
  if (fp.sanitizer != "none") return "sanitizer '" + fp.sanitizer + "' is on";
  if (fp.verify_plans) return "StoreConfig::verify_plans defaults on";
  if (fp.verify_on_recovery) {
    return "StoreConfig::verify_on_recovery defaults on";
  }
  return "";
}

}  // namespace perfbench
