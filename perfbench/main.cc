// SQLGraph benchmark program. Normally started by run.py, which builds it,
// runs the oracle for the Gremlin workloads, and forwards the result line.
//
//   sqlgraph_perfbench --workload W --seed N --seconds S --trace 0|1
//       --work-dir DIR [--expected FILE] [--plant status]
//       [--check-recovery 0|1] [--part K --parts N]
//       [--git-sha SHA] [--source-digest HEX]
//   sqlgraph_perfbench --mode oracle --workload W --seed N --expected FILE
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics (end-to-end ones untraced, per-layer ones with --trace 1).
// Exit code 0 only when every answer and every check was right.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "fingerprint.h"
#include "gremlin_workloads.h"
#include "json/json_parser.h"
#include "linkbench_workload.h"

namespace {

using perfbench::Options;

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--mode") {
      o->mode = value;
    } else if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      o->trace = value == "1";
    } else if (flag == "--expected") {
      o->expected_path = value;
    } else if (flag == "--work-dir") {
      o->work_dir = value;
    } else if (flag == "--check-recovery") {
      o->check_recovery = value == "1";
    } else if (flag == "--part") {
      o->part = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--parts") {
      o->parts = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--plant") {
      o->plant = value;
    } else if (flag == "--git-sha") {
      o->git_sha = value;
    } else if (flag == "--source-digest") {
      o->source_digest = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  const bool known = perfbench::IsGremlinWorkload(o->workload) ||
                     o->workload == "linkbench_mix";
  if (!known) {
    std::fprintf(stderr, "unknown workload '%s'\n", o->workload.c_str());
    return false;
  }
  if (o->seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return false;
  }
  if (o->part >= o->parts) {
    std::fprintf(stderr, "--part must be below --parts\n");
    return false;
  }
  if (o->mode == "oracle") return !o->expected_path.empty();
  return o->mode == "run" && !o->work_dir.empty() &&
         (o->plant.empty() || o->plant == "status");
}

void PrintMetrics(const char* tag, const perfbench::MetricSet& metrics) {
  for (const auto& m : metrics.items()) {
    std::printf("%s %-40s %.6g %s\n", tag, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr, "usage: see the header of perfbench/main.cc\n");
    return 2;
  }
  if (options.mode == "oracle") {
    if (!perfbench::IsGremlinWorkload(options.workload)) return 2;
    return perfbench::RunGremlinOracle(options);
  }

  const perfbench::Fingerprint fp = perfbench::TakeFingerprint(options);
  const std::string refusal = perfbench::RefusalReason(fp);
  if (!refusal.empty()) {
    std::fprintf(stderr, "refusing to report: %s\n", refusal.c_str());
    return 3;
  }
  const sqlgraph::json::JsonValue fingerprint = fp.ToJson();
  std::printf("fingerprint %s\n", sqlgraph::json::Write(fingerprint).c_str());
  std::fflush(stdout);

  perfbench::RunResult result = perfbench::IsGremlinWorkload(options.workload)
                                    ? perfbench::RunGremlin(options)
                                    : perfbench::RunLinkBench(options);

  PrintMetrics("metric", options.trace ? result.per_layer : result.end_to_end);
  PrintMetrics("workload-metric", result.workload_specific);
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "FAILURE: %s\n", p.c_str());
  }

  // A failed whole-run check (audit, recovery, oracle file) counts as one
  // more attempted and failed item.
  const uint64_t checks = result.check_failed ? 1 : 0;
  sqlgraph::json::JsonValue line = sqlgraph::json::JsonValue::Object();
  line.Set("correct", result.correct());
  line.Set("attempted", static_cast<int64_t>(result.attempted + checks));
  line.Set("failed", static_cast<int64_t>(result.failed + checks));
  line.Set("metrics", options.trace ? result.per_layer.ToJson()
                                    : result.end_to_end.ToJson());

  // Result record with its fingerprint, kept next to the run's other output.
  sqlgraph::json::JsonValue record = sqlgraph::json::JsonValue::Object();
  record.Set("workload", options.workload);
  record.Set("seed", static_cast<int64_t>(options.seed));
  record.Set("seconds", options.seconds);
  record.Set("trace", options.trace ? 1 : 0);
  record.Set("fingerprint", fingerprint);
  record.Set("workload_metrics", result.workload_specific.ToJson());
  record.Set("result", line);
  const std::string records = options.work_dir + "/results.jsonl";
  if (std::FILE* f = std::fopen(records.c_str(), "a")) {
    std::fprintf(f, "%s\n", sqlgraph::json::Write(record).c_str());
    std::fclose(f);
  }

  std::printf("%s\n", sqlgraph::json::Write(line).c_str());
  return result.correct() ? 0 : 1;
}
