#include "common.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "obs/metrics.h"

namespace perfbench {

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

sqlgraph::json::JsonValue MetricSet::ToJson() const {
  using sqlgraph::json::JsonValue;
  JsonValue out = JsonValue::Object();
  for (const Metric& m : items_) {
    JsonValue metric = JsonValue::Object();
    // Non-finite values are not JSON; they mean "no samples", reported as 0.
    metric.Set("value", std::isfinite(m.value) ? m.value : 0.0);
    metric.Set("unit", m.unit);
    out.Set(m.name, std::move(metric));
  }
  return out;
}

void InitEndToEnd(MetricSet* m) {
  m->Set("throughput_ops_s", 0, "ops/s");
  m->Set("latency_p50_ms", 0, "ms");
  m->Set("latency_p95_ms", 0, "ms");
  m->Set("setup_s", 0, "s");
  m->Set("store_mb", 0, "MiB");
  m->Set("peak_rss_mb", 0, "MiB");
}

const char* const kLinkBenchOpKeys[10] = {
    "add_node",  "update_node", "delete_node", "get_node",      "add_link",
    "delete_link", "update_link", "count_link", "multiget_link",
    "get_link_list"};

void InitPerLayer(MetricSet* m) {
  m->Set("gremlin.parse_us", 0, "us");
  m->Set("gremlin.translate_us", 0, "us");
  m->Set("gremlin.translation_cache.hit_ratio", 0, "fraction");
  m->Set("sql.prepare_us", 0, "us");
  m->Set("sql.execute_us", 0, "us");
  m->Set("sql.plan_cache.hit_ratio", 0, "fraction");
  m->Set("sql.plan_cache.misses_per_kop", 0, "count");
  m->Set("sql.rows_scanned_per_query", 0, "count");
  m->Set("sql.index_lookups_per_query", 0, "count");
  m->Set("sql.index_nl_joins_per_query", 0, "count");
  m->Set("sql.hash_joins_per_query", 0, "count");
  for (const char* kind : {"scan", "index_nl_join", "left_outer_join",
                           "hash_join", "unnest", "distinct", "aggregate",
                           "set_op", "other"}) {
    m->Set(std::string("sql.op.") + kind + "_self_ms", 0, "ms");
  }
  m->Set("sql.unattributed_frac", 0, "fraction");
  for (const char* op : kLinkBenchOpKeys) {
    m->Set(std::string("store.") + op + "_us", 0, "us");
  }
  m->Set("store.lock.waits_per_kop", 0, "count");
  m->Set("store.lock.wait_ns_p99", 0, "ns");
  m->Set("store.schema_epoch_bumps_per_kop", 0, "count");
  m->Set("store.notfound_per_kop", 0, "count");
  m->Set("rel.buffer_pool.hit_ratio", 0, "fraction");
  m->Set("rel.buffer_pool.misses_per_query", 0, "count");
  m->Set("rel.buffer_pool.evictions_per_query", 0, "count");
  m->Set("wal.bytes_per_write_op", 0, "bytes");
  m->Set("wal.replay_ms", 0, "ms");
  m->Set("wal.recovered_records", 0, "count");
  m->Set("setup.generate_s", 0, "s");
  m->Set("setup.build_s", 0, "s");
  m->Set("setup.out_colors", 0, "count");
  m->Set("setup.in_colors", 0, "count");
  m->Set("setup.spill_rows", 0, "count");
  m->Set("setup.osa_rows", 0, "count");
  m->Set("trace.overhead_frac", 0, "fraction");
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void SetRegistryMetrics(double requests, MetricSet* m) {
  auto& registry = sqlgraph::obs::MetricsRegistry::Default();
  auto count = [&](const char* name) {
    return static_cast<double>(registry.GetCounter(name)->Value());
  };
  const double hits = count("sql.plan_cache.hits");
  const double misses = count("sql.plan_cache.misses");
  m->Set("sql.plan_cache.hit_ratio", Ratio(hits, hits + misses), "fraction");
  // The store's prepared EA templates look the plan cache up only after a
  // schema-epoch bump invalidated them, so on linkbench_mix every lookup is
  // a re-prepare: the miss rate, not the hit ratio, tracks the churn.
  m->Set("sql.plan_cache.misses_per_kop", Ratio(misses * 1e3, requests),
         "count");
  m->Set("store.lock.waits_per_kop",
         Ratio(count("store.lock.waits") * 1e3, requests), "count");
  m->Set("store.lock.wait_ns_p99",
         registry.GetHistogram("store.lock.wait_ns")->TakeSnapshot().p99(),
         "ns");
}

void SetSetupMetrics(const SetupTimes& setup,
                     const sqlgraph::core::LoadStats& load, MetricSet* m) {
  m->Set("setup.generate_s", setup.generate_s, "s");
  m->Set("setup.build_s", setup.build_s, "s");
  m->Set("setup.out_colors", static_cast<double>(load.out_colors), "count");
  m->Set("setup.in_colors", static_cast<double>(load.in_colors), "count");
  m->Set("setup.spill_rows",
         static_cast<double>(load.out_spill_rows + load.in_spill_rows), "count");
  m->Set("setup.osa_rows", static_cast<double>(load.osa_rows), "count");
}

void RunResult::Problem(const std::string& what) {
  if (problems.size() < 20) problems.push_back(what);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 over (seed, stream): distinct streams never share a state.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double NowSeconds() { return static_cast<double>(NowNanos()) * 1e-9; }

}  // namespace perfbench
