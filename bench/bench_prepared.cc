// Prepared-query pipeline microbenchmark: LinkBench get_link_list
// throughput, parse-per-call vs. prepared execution.
//
// Three variants run the same query stream (Zipf-skewed source vertex +
// uniform assoc label):
//
//   cold      — renders literal SQL text per call and executes it through a
//               fresh Executor with no plan cache: the pre-prepared-pipeline
//               behavior (lex + parse + plan every call),
//   prepared  — SqlGraphStore::Prepare() once, ExecutePrepared() with binds
//               per call (plan-cache + PlanMemo replay; the handle stays
//               valid for the life of the store),
//   store     — SqlGraphStore::GetOutEdges(), the internal template path
//               used by the LinkBench driver; its templates are compiled
//               once when the store is built, so the reported
//               plan_cache_misses include those compilations.
//
//   ./bench_prepared [--objects=20000] [--ops=30000] [--verify=0|1]
//
// --verify forces StoreConfig::verify_plans on or off (default: the build
// type's default — on without NDEBUG, off with), so the plan-verifier
// overhead can be measured as an on/off ratio on the same binary. Prepared
// replays claim at most two verification passes per statement, so the
// steady-state prepared throughput must be unaffected.
//
// Emits one JSON line per variant plus a speedup summary.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "bench_common.h"
#include "graph/linkbench_gen.h"
#include "sql/executor.h"
#include "util/rng.h"
#include "util/string_util.h"

using namespace sqlgraph;
using namespace sqlgraph::bench;

namespace {

struct QueryStream {
  std::vector<int64_t> src;
  std::vector<std::string> label;
};

QueryStream MakeStream(size_t ops, size_t num_objects, size_t num_assoc_types,
                       double zipf_theta) {
  util::Rng rng(42);
  QueryStream stream;
  stream.src.reserve(ops);
  stream.label.reserve(ops);
  for (size_t i = 0; i < ops; ++i) {
    // Cheap Zipf-ish skew: square a uniform draw toward the low ids.
    const double u = rng.NextDouble();
    const double skewed = std::pow(u, 1.0 + zipf_theta);
    stream.src.push_back(
        static_cast<int64_t>(skewed * static_cast<double>(num_objects)));
    stream.label.push_back(
        util::StrFormat("assoc_%zu", rng.Uniform(num_assoc_types)));
  }
  return stream;
}

double RunCold(core::SqlGraphStore* store, const QueryStream& stream,
               size_t* rows_out) {
  util::Stopwatch sw;
  size_t rows = 0;
  for (size_t i = 0; i < stream.src.size(); ++i) {
    // Literal values inlined into the text: every call is a distinct
    // statement, so the store must lex/parse/plan it from scratch (the
    // plan cache cannot help — each text is seen once).
    const std::string text = util::StrFormat(
        "SELECT EID, INV, OUTV, LBL, ATTR FROM EA WHERE INV = %lld AND "
        "LBL = '%s'",
        static_cast<long long>(stream.src[i]), stream.label[i].c_str());
    auto result = store->ExecuteSql(text);
    if (result.ok()) rows += result->rows.size();
  }
  *rows_out = rows;
  return sw.ElapsedSeconds();
}

double RunPrepared(core::SqlGraphStore* store, const QueryStream& stream,
                   size_t* rows_out) {
  auto prepared = store->Prepare(
      "SELECT EID, INV, OUTV, LBL, ATTR FROM EA WHERE INV = ? AND LBL = ?");
  if (!prepared.ok()) {
    std::printf("prepare failed: %s\n", prepared.status().ToString().c_str());
    return 0;
  }
  util::Stopwatch sw;
  size_t rows = 0;
  sql::ParamBindings binds;
  binds.positional.resize(2);
  for (size_t i = 0; i < stream.src.size(); ++i) {
    binds.positional[0] = rel::Value(stream.src[i]);
    binds.positional[1] = rel::Value(stream.label[i]);
    auto result = store->ExecutePrepared(**prepared, binds);
    if (result.ok()) rows += result->rows.size();
  }
  *rows_out = rows;
  return sw.ElapsedSeconds();
}

double RunStore(core::SqlGraphStore* store, const QueryStream& stream,
                size_t* rows_out) {
  util::Stopwatch sw;
  size_t rows = 0;
  for (size_t i = 0; i < stream.src.size(); ++i) {
    auto result = store->GetOutEdges(stream.src[i], stream.label[i]);
    if (result.ok()) rows += result->size();
  }
  *rows_out = rows;
  return sw.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  const size_t objects =
      static_cast<size_t>(FlagInt(argc, argv, "--objects", 20000));
  const size_t ops = static_cast<size_t>(FlagInt(argc, argv, "--ops", 30000));
  const int64_t verify = FlagInt(argc, argv, "--verify", -1);

  graph::LinkBenchConfig config;
  config.num_objects = objects;
  std::printf("generating LinkBench graph, %zu objects ...\n", objects);
  graph::PropertyGraph g = graph::GenerateLinkBenchGraph(config);
  std::printf("  %zu vertices, %zu edges\n", g.NumVertices(), g.NumEdges());

  core::StoreConfig store_config;
  if (verify >= 0) store_config.verify_plans = (verify != 0);
  std::printf("  plan verification: %s\n",
              store_config.verify_plans ? "on" : "off");
  auto built = core::SqlGraphStore::Build(g, store_config);
  if (!built.ok()) {
    std::printf("build failed: %s\n", built.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<core::SqlGraphStore> store = std::move(built).value();

  const QueryStream stream =
      MakeStream(ops, objects, config.num_assoc_types, config.zipf_theta);

  Banner("get_link_list: parse-per-call vs prepared");
  struct Variant {
    const char* name;
    double (*run)(core::SqlGraphStore*, const QueryStream&, size_t*);
  };
  const Variant variants[] = {
      {"cold", RunCold}, {"prepared", RunPrepared}, {"store", RunStore}};

  TextTable table({"variant", "ops/s", "elapsed_s", "rows"});
  double cold_qps = 0, prepared_qps = 0;
  for (const Variant& v : variants) {
    size_t rows = 0;
    // Warm-up pass (cache fill, page faults), then the timed pass.
    size_t warm_rows = 0;
    QueryStream warmup;
    const size_t warm_n = std::min<size_t>(stream.src.size(), 500);
    warmup.src.assign(stream.src.begin(), stream.src.begin() + warm_n);
    warmup.label.assign(stream.label.begin(), stream.label.begin() + warm_n);
    v.run(store.get(), warmup, &warm_rows);
    const double secs = v.run(store.get(), stream, &rows);
    const double qps = secs > 0 ? static_cast<double>(ops) / secs : 0;
    if (std::string(v.name) == "cold") cold_qps = qps;
    if (std::string(v.name) == "prepared") prepared_qps = qps;
    table.AddRow({v.name, util::StrFormat("%.0f", qps),
                  util::StrFormat("%.3f", secs), std::to_string(rows)});
    JsonLine("bench_prepared")
        .Str("variant", v.name)
        .Num("ops", static_cast<double>(ops))
        .Num("ops_per_sec", qps)
        .Num("elapsed_s", secs)
        .Num("rows", static_cast<double>(rows))
        .Emit();
  }
  std::printf("%s", table.ToString().c_str());

  const double speedup = cold_qps > 0 ? prepared_qps / cold_qps : 0;
  std::printf("\nprepared vs parse-per-call speedup: %.2fx\n", speedup);
  JsonLine("bench_prepared")
      .Str("variant", "summary")
      .Num("speedup_prepared_vs_cold", speedup)
      .Num("plan_cache_hits", static_cast<double>(store->plan_cache().hits()))
      .Num("plan_cache_misses",
           static_cast<double>(store->plan_cache().misses()))
      .Emit();
  return speedup >= 2.0 ? 0 : 1;
}
