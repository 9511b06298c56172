// Machine and build fingerprint stamped on every result record, and the
// guard that refuses to report numbers from a build that would skew them.

#ifndef PERFBENCH_FINGERPRINT_H_
#define PERFBENCH_FINGERPRINT_H_

#include <string>

#include "common.h"
#include "json/json_value.h"

namespace perfbench {

struct Fingerprint {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string git_sha;
  std::string source_digest;
  std::string sqlgraph_metrics;  // value of SQLGRAPH_METRICS, "unset" if none
  bool metrics_enabled = true;
  bool verify_plans = false;        // StoreConfig default in this build
  bool verify_on_recovery = false;  // StoreConfig default in this build
  bool assertions = false;          // NDEBUG not defined
  std::string sanitizer;            // "none" or the sanitizer compiled in

  sqlgraph::json::JsonValue ToJson() const;
};

Fingerprint TakeFingerprint(const Options& options);

/// Empty when the build may report; otherwise why it may not (a Debug or
/// sanitized build, or plan/recovery verification on by default, all of
/// which change the numbers).
std::string RefusalReason(const Fingerprint& fp);

}  // namespace perfbench

#endif  // PERFBENCH_FINGERPRINT_H_
