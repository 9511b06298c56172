// Tests for the observability layer (src/obs): counter/gauge/histogram
// semantics, histogram quantile error bounds (unit + property test against
// exact sorted-vector quantiles), the sharded hot path under concurrency
// (the TSan stage of ci/check.sh runs this suite), the registry dumps, and
// EXPLAIN ANALYZE — including the soft-delete regression: deleted vertices
// must vanish from operator row counts and Gremlin results, before and
// after Compact.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gremlin/runtime.h"
#include "gtest/gtest.h"
#include "json/json_value.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sqlgraph/store.h"
#include "util/rng.h"

namespace sqlgraph {
namespace {

using core::SqlGraphStore;
using core::StoreConfig;
using graph::PropertyGraph;
using graph::VertexId;
using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;

// ----------------------------------------------------- counters & gauges --

TEST(CounterTest, AddsAndMergesShards) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, DisabledWritesAreDropped) {
  Counter c;
  obs::SetMetricsEnabled(false);
  c.Add(100);
  obs::SetMetricsEnabled(true);
  EXPECT_EQ(c.Value(), 0u);
  c.Add(1);
  EXPECT_EQ(c.Value(), 1u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(7);
  g.Add(-2);
  EXPECT_EQ(g.Value(), 5);
}

// ------------------------------------------------------ histogram buckets --

TEST(HistogramTest, BucketIndexIsMonotonicAndBoundsContainValue) {
  size_t prev = 0;
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{15}, uint64_t{16},
                     uint64_t{17}, uint64_t{100}, uint64_t{1000},
                     uint64_t{123456}, uint64_t{1} << 30, uint64_t{1} << 39}) {
    const size_t idx = Histogram::BucketIndex(v);
    EXPECT_GE(idx, prev) << "bucket index not monotonic at " << v;
    prev = idx;
    uint64_t lo = 0, hi = 0;
    Histogram::BucketBounds(idx, &lo, &hi);
    EXPECT_LE(lo, v) << "value " << v << " below bucket " << idx;
    EXPECT_GE(hi, v) << "value " << v << " above bucket " << idx;
  }
  // Oversized samples clamp into the final bucket instead of overflowing.
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) h.Record(v);
  auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.total, Histogram::kSubBuckets);
  // Values below kSubBuckets land in unit-width buckets: quantiles exact.
  EXPECT_EQ(snap.Quantile(0.0), 0.0);
  EXPECT_EQ(snap.Quantile(1.0), Histogram::kSubBuckets - 1);
}

TEST(HistogramTest, QuantilesWithinRelativeErrorBound) {
  // Property test: random samples, compare p50/p95/p99 against the exact
  // nearest-rank quantile of the sorted vector. Bucket relative width is
  // 1/16 (6.25%); the midpoint estimate stays within half that plus
  // nearest-rank slack — assert a conservative 12.5%.
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    util::Rng rng(0x9157 + seed * 7919);
    Histogram h;
    std::vector<uint64_t> samples;
    const size_t n = 2000 + rng.Uniform(3000);
    for (size_t i = 0; i < n; ++i) {
      // Log-uniform spread across many bucket scales, capped below the
      // histogram's 2^40 clamp (clamped samples forfeit the bound).
      const uint64_t v = rng.Next() >> (26 + rng.Uniform(38));
      samples.push_back(v);
      h.Record(v);
    }
    std::sort(samples.begin(), samples.end());
    auto snap = h.TakeSnapshot();
    ASSERT_EQ(snap.total, samples.size());
    for (double q : {0.5, 0.95, 0.99}) {
      const double exact = static_cast<double>(
          samples[static_cast<size_t>(q * static_cast<double>(n - 1))]);
      const double est = snap.Quantile(q);
      const double err = std::abs(est - exact) / std::max(exact, 1.0);
      EXPECT_LE(err, 0.125) << "seed " << seed << " q " << q << ": exact "
                            << exact << " est " << est;
    }
  }
}

TEST(HistogramTest, ShardedMergePreservesQuantileBound) {
  // Same bound after concurrent writers scatter samples across shards.
  Histogram h;
  std::vector<uint64_t> all;
  std::mutex all_mu;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&h, &all, &all_mu, t] {
      util::Rng rng(0x77AB + static_cast<uint64_t>(t));
      std::vector<uint64_t> mine;
      for (int i = 0; i < 4000; ++i) {
        const uint64_t v = rng.Next() >> (24 + rng.Uniform(32));
        mine.push_back(v);
        h.Record(v);
      }
      std::lock_guard<std::mutex> lock(all_mu);
      all.insert(all.end(), mine.begin(), mine.end());
    });
  }
  for (auto& th : threads) th.join();
  std::sort(all.begin(), all.end());
  auto snap = h.TakeSnapshot();
  ASSERT_EQ(snap.total, all.size());
  for (double q : {0.5, 0.95, 0.99}) {
    const double exact = static_cast<double>(
        all[static_cast<size_t>(q * static_cast<double>(all.size() - 1))]);
    const double est = snap.Quantile(q);
    EXPECT_LE(std::abs(est - exact) / std::max(exact, 1.0), 0.125)
        << "q " << q;
  }
}

// ------------------------------------------------- concurrency / registry --

TEST(MetricsConcurrencyTest, WritersAndDumperRaceCleanly) {
  // The metrics hot path is the one piece of obs that runs inside every
  // query: hammer one counter + one histogram from writer threads while a
  // dumper merges shards and renders JSON. TSan (ci/check.sh) must see no
  // races; the final merged count must equal what the writers added.
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.race.counter");
  Histogram* h = registry.GetHistogram("test.race.hist");
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::thread dumper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)registry.DumpJson();
      (void)h->TakeSnapshot();
      (void)c->Value();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      util::Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kPerWriter; ++i) {
        c->Increment();
        h->Record(rng.Uniform(1 << 20));
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  dumper.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(h->TakeSnapshot().total,
            static_cast<uint64_t>(kWriters) * kPerWriter);
}

TEST(MetricsRegistryTest, NamesAreStableAndDumpsContainThem) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x.count");
  EXPECT_EQ(a, registry.GetCounter("x.count"));  // same object by name
  a->Add(3);
  registry.GetHistogram("x.lat")->Record(1000);
  const std::string text = registry.DumpText();
  EXPECT_NE(text.find("x.count"), std::string::npos);
  const std::string json = registry.DumpJson();
  EXPECT_NE(json.find("\"x.count\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"x.lat\""), std::string::npos);
  registry.ResetAll();
  EXPECT_EQ(a->Value(), 0u);
}

// ----------------------------------------------------------- trace spans --

TEST(ScopedSpanTest, NullSinkIsNoOpAndFinishIsIdempotent) {
  obs::ScopedSpan null_span(nullptr, "ctx", "op");  // must not crash
  null_span.add_rows(3);

  std::vector<obs::TraceSpan> sink;
  {
    obs::ScopedSpan span(&sink, "TEMP_1", "seq scan");
    span.set_rows(7);
    span.Finish();
    span.Finish();  // second finish is a no-op
  }
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink[0].context, "TEMP_1");
  EXPECT_EQ(sink[0].op, "seq scan");
  EXPECT_EQ(sink[0].rows, 7u);
  const std::string table = obs::FormatSpanTable(sink);
  EXPECT_NE(table.find("seq scan"), std::string::npos);
}

// -------------------------------------------------------- EXPLAIN ANALYZE --

json::JsonValue Attr(const char* key, const char* value) {
  json::JsonValue obj = json::JsonValue::Object();
  obj.Set(key, std::string(value));
  return obj;
}

/// 1 hub + `spokes` leaf vertices, hub → each leaf with label "rel".
PropertyGraph HubGraph(size_t spokes) {
  PropertyGraph g;
  g.AddVertex(Attr("kind", "hub"));
  for (size_t i = 0; i < spokes; ++i) {
    const VertexId leaf = g.AddVertex(Attr("kind", "leaf"));
    (void)g.AddEdge(0, leaf, "rel", json::JsonValue::Object());
  }
  return g;
}

TEST(ExplainAnalyzeTest, SqlPrefixReturnsOperatorRows) {
  auto store = SqlGraphStore::Build(HubGraph(5));
  ASSERT_TRUE(store.ok());
  auto r = (*store)->ExecuteSql("explain analyze SELECT * FROM OPA");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->columns.size(), 4u);
  EXPECT_EQ(r->columns[0], "stage");
  EXPECT_EQ(r->columns[1], "operator");
  EXPECT_EQ(r->columns[2], "rows");
  EXPECT_EQ(r->columns[3], "time_ms");
  ASSERT_FALSE(r->rows.empty());
  bool saw_scan = false;
  for (const auto& row : r->rows) {
    if (row[1].AsString().find("scan") != std::string::npos) saw_scan = true;
    EXPECT_GE(row[3].AsDouble(), 0.0);
  }
  EXPECT_TRUE(saw_scan);
}

TEST(ExplainAnalyzeTest, DistinctAndSetOpRecordSpans) {
  auto store = SqlGraphStore::Build(HubGraph(5));
  ASSERT_TRUE(store.ok());
  auto r = (*store)->ExecuteSql(
      "explain analyze SELECT DISTINCT LBL FROM EA UNION SELECT LBL FROM EA");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  int64_t distinct_rows = -1, union_rows = -1;
  for (const auto& row : r->rows) {
    if (row[1].AsString() == "distinct") distinct_rows = row[2].AsInt();
    if (row[1].AsString() == "union") union_rows = row[2].AsInt();
  }
  // Five "rel" edges collapse to one label, on both sides of the UNION.
  EXPECT_EQ(distinct_rows, 1);
  EXPECT_EQ(union_rows, 1);
}

TEST(ExplainAnalyzeTest, GremlinAttributesOperatorsToEveryTable8Pipe) {
  StoreConfig config;
  config.va_hash_indexes = {"kind"};
  auto store = SqlGraphStore::Build(HubGraph(6), config);
  ASSERT_TRUE(store.ok());
  gremlin::GremlinRuntime runtime(store->get());
  const char* queries[] = {
      "g.V.has('kind','leaf').count()",
      "g.V(0).out()",
      "g.V(0).out('rel')",
      "g.V.has('kind','hub').out().dedup().count()",
      "g.V(0).out().out().count()",
      "g.V(0).outE('rel').inV().dedup().count()",
      "g.V(0).as('x').out().back('x').dedup().count()",
      "g.V(0).out().path()",
  };
  for (const char* q : queries) {
    auto explain = runtime.ExplainAnalyze(q);
    ASSERT_TRUE(explain.ok()) << q << ": " << explain.status().ToString();
    ASSERT_FALSE(explain->pipes.empty()) << q;
    size_t attributed = 0;
    for (const auto& p : explain->pipes) {
      attributed += p.spans.size();
      for (const auto& s : p.spans) {
        // Every attributed span ran in a CTE this pipe emitted.
        EXPECT_NE(std::find(p.ctes.begin(), p.ctes.end(), s.context),
                  p.ctes.end())
            << q << ": span " << s.op << " in " << s.context;
      }
    }
    // Per-operator stats exist and land on pipes (the final SELECT's spans
    // are allowed to stay unattributed).
    EXPECT_GT(attributed + explain->final_spans.size(), 0u) << q;
    EXPECT_GT(attributed, 0u) << q;
    EXPECT_FALSE(explain->ToString().empty()) << q;
  }
}

TEST(ExplainAnalyzeTest, GremlinRowsMatchActualResults) {
  auto store = SqlGraphStore::Build(HubGraph(4));
  ASSERT_TRUE(store.ok());
  gremlin::GremlinRuntime runtime(store->get());
  auto explain = runtime.ExplainAnalyze("g.V(0).out()");
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->result.rows.size(), 4u);
  // The out() pipe's reported row count is what the query returned.
  ASSERT_FALSE(explain->pipes.empty());
  EXPECT_EQ(explain->pipes.back().rows, 4u);
}

TEST(ExplainAnalyzeTest, BatchedExecutorKeepsSpanRowsAndPipeMapping) {
  // Regression for the vectorized executor: EXPLAIN ANALYZE must attribute
  // the same operators with the same per-operator row counts as the
  // row-at-a-time executor — seq-scan spans count scanned (not surviving)
  // rows, join spans count emitted rows — and the Gremlin pipe mapping must
  // survive batching untouched.
  StoreConfig vec_config;
  vec_config.va_hash_indexes = {"kind"};
  vec_config.vectorized = true;
  StoreConfig row_config = vec_config;
  row_config.vectorized = false;
  auto vec_store = SqlGraphStore::Build(HubGraph(8), vec_config);
  ASSERT_TRUE(vec_store.ok());
  auto row_store = SqlGraphStore::Build(HubGraph(8), row_config);
  ASSERT_TRUE(row_store.ok());

  const char* sql_queries[] = {
      // Seq scan + residual filter: the scan span reports all rows scanned.
      "explain analyze SELECT * FROM EA WHERE LBL = 'rel'",
      // Hash join + aggregate (no index on the derived CTE).
      "explain analyze WITH deg AS (SELECT INV AS V FROM EA) "
      "SELECT e.INV, COUNT(*) FROM EA e, VA v WHERE v.VID = e.INV "
      "GROUP BY e.INV",
  };
  for (const char* q : sql_queries) {
    auto vec = (*vec_store)->ExecuteSql(q);
    ASSERT_TRUE(vec.ok()) << q << ": " << vec.status().ToString();
    auto row = (*row_store)->ExecuteSql(q);
    ASSERT_TRUE(row.ok()) << q << ": " << row.status().ToString();
    ASSERT_EQ(vec->rows.size(), row->rows.size()) << q;
    for (size_t i = 0; i < vec->rows.size(); ++i) {
      // (stage, operator, rows) identical; time_ms may differ.
      EXPECT_EQ(vec->rows[i][0], row->rows[i][0]) << q << " span " << i;
      EXPECT_EQ(vec->rows[i][1], row->rows[i][1]) << q << " span " << i;
      EXPECT_EQ(vec->rows[i][2], row->rows[i][2])
          << q << " span " << i << " (" << vec->rows[i][1].AsString() << ")";
    }
  }

  // Gremlin pipe attribution: same pipes, same span ops/rows/contexts in
  // both modes on a multi-pipe Table-8 pipeline.
  gremlin::GremlinRuntime vec_runtime(vec_store->get());
  gremlin::GremlinRuntime row_runtime(row_store->get());
  const char* pipelines[] = {
      "g.V.has('kind','hub').out().dedup().count()",
      "g.V(0).outE('rel').inV().dedup().count()",
  };
  for (const char* q : pipelines) {
    auto vec = vec_runtime.ExplainAnalyze(q);
    ASSERT_TRUE(vec.ok()) << q << ": " << vec.status().ToString();
    auto row = row_runtime.ExplainAnalyze(q);
    ASSERT_TRUE(row.ok()) << q << ": " << row.status().ToString();
    ASSERT_EQ(vec->pipes.size(), row->pipes.size()) << q;
    for (size_t p = 0; p < vec->pipes.size(); ++p) {
      EXPECT_EQ(vec->pipes[p].rows, row->pipes[p].rows) << q << " pipe " << p;
      ASSERT_EQ(vec->pipes[p].spans.size(), row->pipes[p].spans.size())
          << q << " pipe " << p;
      for (size_t s = 0; s < vec->pipes[p].spans.size(); ++s) {
        EXPECT_EQ(vec->pipes[p].spans[s].op, row->pipes[p].spans[s].op)
            << q << " pipe " << p << " span " << s;
        EXPECT_EQ(vec->pipes[p].spans[s].rows, row->pipes[p].spans[s].rows)
            << q << " pipe " << p << " span "
            << vec->pipes[p].spans[s].op;
        EXPECT_EQ(vec->pipes[p].spans[s].context,
                  row->pipes[p].spans[s].context)
            << q << " pipe " << p << " span " << s;
      }
    }
    EXPECT_EQ(vec->result.rows, row->result.rows) << q;
  }
}

TEST(ExplainAnalyzeTest, SoftDeletedVerticesVanishFromRowCounts) {
  // Regression for the §4.5.2 soft-delete filter: after RemoveVertex, both
  // the Gremlin result and the attributed operator row counts must exclude
  // the deleted vertex (its VID went negative), before AND after Compact.
  auto store = SqlGraphStore::Build(HubGraph(6));
  ASSERT_TRUE(store.ok());
  gremlin::GremlinRuntime runtime(store->get());

  auto rows_of = [&](const char* q) -> int64_t {
    auto explain = runtime.ExplainAnalyze(q);
    EXPECT_TRUE(explain.ok()) << q;
    if (!explain.ok()) return -1;
    // Deleted vertices must not appear in the result...
    const int col = explain->result.FindColumn("val");
    EXPECT_GE(col, 0);
    for (const auto& row : explain->result.rows) {
      EXPECT_GE(row[static_cast<size_t>(col)].AsInt(), 0)
          << "negative VID leaked: " << q;
    }
    // ...nor inflate the final pipe's operator row count.
    return static_cast<int64_t>(explain->pipes.back().rows);
  };

  EXPECT_EQ(rows_of("g.V(0).out()"), 6);

  // Delete two leaves (vids 1 and 2).
  ASSERT_TRUE((*store)->RemoveVertex(1).ok());
  ASSERT_TRUE((*store)->RemoveVertex(2).ok());
  EXPECT_EQ(rows_of("g.V(0).out()"), 4);
  auto count = runtime.Count("g.V.count()");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 5);  // hub + 4 surviving leaves

  // Compact purges the negated rows; results must be identical.
  ASSERT_TRUE((*store)->Compact().ok());
  EXPECT_EQ(rows_of("g.V(0).out()"), 4);
  count = runtime.Count("g.V.count()");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 5);
}

TEST(ExplainAnalyzeTest, SubsystemCountersFlowThroughDefaultRegistry) {
  // End-to-end: running queries moves the process-wide counters the
  // executor exports.
  auto store = SqlGraphStore::Build(HubGraph(3));
  ASSERT_TRUE(store.ok());
  Counter* queries =
      MetricsRegistry::Default().GetCounter("sql.queries");
  const uint64_t before = queries->Value();
  ASSERT_TRUE((*store)->ExecuteSql("SELECT * FROM OPA").ok());
  EXPECT_GT(queries->Value(), before);
  const std::string dump = MetricsRegistry::Default().DumpJson();
  EXPECT_NE(dump.find("sql.queries"), std::string::npos);
}

}  // namespace
}  // namespace sqlgraph
