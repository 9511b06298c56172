// Shared plumbing of the benchmark program: command-line options, the metric
// records a workload fills in, phase statistics, memory helpers, and seed
// derivation. Everything here is benchmark-side; the system under test is
// reached only through its public headers.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "json/json_value.h"
#include "sqlgraph/schema.h"
#include "util/stats.h"

namespace perfbench {

struct Options {
  std::string mode = "run";  // "run" or "oracle"
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// linkbench_mix: close and reopen the store after the run, and check
  /// that acknowledged writes survive.
  bool check_recovery = true;
  /// This process is part `part` of `parts` that run.py runs in a row.
  /// gremlin_paged starts at request part/parts of the stream, so the parts
  /// of a run measure different stretches of it.
  uint64_t part = 0;
  uint64_t parts = 1;
  /// Oracle file: written in oracle mode, read by the gremlin workloads.
  std::string expected_path;
  /// Scratch directory inside the checkout (durable stores, span files).
  std::string work_dir;
  /// Self-test fault to plant: "" (none) or "status" (one forced non-OK
  /// LinkBench status). A wrong expected count is planted by editing the
  /// oracle file, so it needs no flag.
  std::string plant;
  /// Source identity forwarded by run.py for the fingerprint.
  std::string git_sha = "none";
  std::string source_digest = "none";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Insertion-ordered name → (value, unit) list.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }
  /// `{"name": {"value": v, "unit": "u"}, ...}`.
  sqlgraph::json::JsonValue ToJson() const;

 private:
  std::vector<Metric> items_;
};

/// What one invocation measured and whether every answer was right.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// First few failure descriptions (wrong answers, bad statuses, audits).
  std::vector<std::string> problems;
  /// Set when a check other than a per-request one fails (consistency
  /// audit, lost acknowledged write, unreadable oracle file, store build).
  bool check_failed = false;
  MetricSet end_to_end;  // untraced run: the gated metrics
  MetricSet per_layer;   // traced run
  /// Printed for every run but not part of the result line, because the
  /// result line must carry the same metrics on every workload.
  MetricSet workload_specific;

  bool correct() const { return failed == 0 && !check_failed; }
  void Problem(const std::string& what);
};

/// The gated metrics every workload reports, in result-line order, each set
/// to 0 until the workload measures it.
void InitEndToEnd(MetricSet* metrics);
/// Every per-layer metric, in order, at 0. A metric a workload does not
/// exercise (lock waits on one client, WAL counters on a read-only store,
/// buffer-pool counters on resident storage) stays 0.
void InitPerLayer(MetricSet* metrics);

/// Per-layer metrics read from the obs registry, which the caller reset at
/// the start of a phase of `requests` requests: plan-cache hit ratio and
/// misses, table-lock waits and their p99.
void SetRegistryMetrics(double requests, MetricSet* per_layer);

/// Times of the process's one store set-up. run.py starts several processes
/// per run and reports the median over them.
struct SetupTimes {
  double generate_s = 0, build_s = 0, total_s = 0;
};

/// The setup.* per-layer metrics: the timed set-up steps plus the loader's
/// coloring and overflow statistics.
void SetSetupMetrics(const SetupTimes& setup,
                     const sqlgraph::core::LoadStats& load,
                     MetricSet* per_layer);

/// num / den, or 0 when there is nothing to divide by.
double Ratio(double num, double den);

/// LinkBench op names as they appear in metric names (store.<op>_us).
extern const char* const kLinkBenchOpKeys[10];

/// Independent, deterministic sub-seed for stream `stream` of run `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMb();

/// Seconds on a monotonic clock since an arbitrary process-wide origin.
double NowSeconds();
uint64_t NowNanos();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
