#include "gremlin_workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <unordered_map>

#include "baseline/gremlin_interp.h"
#include "baseline/native_store.h"
#include "bench_core/workloads.h"
#include "graph/dbpedia_gen.h"
#include "gremlin/parser.h"
#include "gremlin/runtime.h"
#include "gremlin/translation_cache.h"
#include "gremlin/translator.h"
#include "obs/metrics.h"
#include "sqlgraph/store.h"
#include "tracing.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace perfbench {

using sqlgraph::util::StrFormat;
namespace core = sqlgraph::core;
namespace gremlin = sqlgraph::gremlin;
namespace graph = sqlgraph::graph;
namespace obs = sqlgraph::obs;

namespace {

// Scale 0.2: ~20k vertices / ~93k edges, ~19 MB serialized.
constexpr double kScale = 0.2;
// Paged pool: about a fifth of the store's serialized size, so the working
// set of the point stream does not fit (paper Fig. 8c).
constexpr size_t kPagedPoolBytes = size_t{4} << 20;
// Rounds of the 13 point shapes in the request stream (each round draws
// fresh start entities); the timed loop cycles through the stream.
constexpr size_t kPointRounds = 240;
// Seeded share of traced requests whose execution is repeated with
// per-operator spans (EXPLAIN ANALYZE).
constexpr double kExplainShare = 0.03;

// The graph is the same for every seed, as a benchmark's dataset is; the
// seed makes the request stream. With a graph drawn per seed, p95 spread
// about four times as much over seeds as over repeats of one seed.
constexpr uint64_t kGraphSeed = 20150531;

enum Stream : uint64_t {
  kRequestStream = 2,
  kExplainStream = 3,
};

struct Request {
  std::string shape;
  std::string text;
  int64_t expected = -1;
};

graph::DbpediaConfig GraphConfig() {
  graph::DbpediaConfig config;
  config.scale = kScale;
  config.seed = kGraphSeed;
  return config;
}

core::StoreConfig PagedStoreConfig() {
  core::StoreConfig config;
  config.va_hash_indexes = sqlgraph::bench::IndexedAttributeKeys();
  config.va_ordered_indexes = sqlgraph::bench::OrderedIndexedAttributeKeys();
  config.storage = sqlgraph::rel::StorageMode::kPaged;
  config.buffer_pool_bytes = kPagedPoolBytes;
  return config;
}

// Number of top-level places (Place_L0_k), derived the way the generator
// sizes its hierarchy: leaves first, each level above 0.55x the one below.
size_t PlaceRoots(const graph::DbpediaConfig& cfg) {
  double size = std::max<double>(64, static_cast<size_t>(16000 * cfg.scale));
  for (size_t level = cfg.num_place_levels - 1; level-- > 0;) {
    size = std::max<double>(2, std::ceil(size * 0.55));
  }
  return static_cast<size_t>(size);
}

// Constants for `rounds` calls of one shape, in seeded order. A small
// domain is dealt in shuffled blocks that each hold every value once, so
// every prefix of the stream (a slow run may not get through all of it)
// has nearly the same cost mix. A large domain gets one value from each of
// `rounds` equal strata, in shuffled order.
std::vector<uint64_t> Deck(uint64_t domain, size_t rounds,
                           sqlgraph::util::Rng* rng) {
  auto shuffle = [rng](std::vector<uint64_t>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
    }
  };
  std::vector<uint64_t> deck;
  if (domain <= rounds) {
    while (deck.size() < rounds) {
      std::vector<uint64_t> block(domain);
      for (uint64_t k = 0; k < domain; ++k) block[k] = k;
      shuffle(&block);
      deck.insert(deck.end(), block.begin(), block.end());
    }
    deck.resize(rounds);
    return deck;
  }
  for (size_t i = 0; i < rounds; ++i) {
    const uint64_t lo = domain * i / rounds;
    const uint64_t hi = domain * (i + 1) / rounds;
    deck.push_back(lo + rng->Uniform(hi - lo));
  }
  shuffle(&deck);
  return deck;
}

// The 13 selective DBpedia shapes (dq1-5, dq8-13, dq16, dq19), kPointRounds
// times each in shuffled rounds, with start constants drawn from the seed.
std::vector<Request> PointRequests(uint64_t seed) {
  const graph::DbpediaConfig cfg = GraphConfig();
  const uint64_t teams = std::max<size_t>(8, cfg.NumTeams());
  const uint64_t misc = std::max<size_t>(64, cfg.NumMisc());
  const uint64_t roots = PlaceRoots(cfg);
  static const char* kGenres[] = {"Rocken", "Jazzen", "Popmusik", "Klassiken",
                                  "Hiphopen", "Folk", "Metalen", "Blues"};
  // Shape, its text with one %s for the drawn constant, and its domain.
  struct Shape {
    const char* name;
    const char* text;
    char domain;  // T(eam), M(isc), P(lace root), G(enre), L(ongm interval)
  };
  static const Shape kShapes[] = {
      {"dq1", "g.V('uri', '%s').in('team').count()", 'T'},
      {"dq2", "g.V('uri', '%s').in('team').out('team').dedup().count()", 'T'},
      {"dq3", "g.V('uri', '%s').in('team').has('national').count()", 'T'},
      {"dq4", "g.V('uri', '%s').in('isPartOf').count()", 'P'},
      {"dq5", "g.V('uri', '%s').in('isPartOf').in('isPartOf').dedup().count()",
       'P'},
      {"dq8", "g.V.has('genre', '%s').count()", 'G'},
      {"dq9", "g.V.has('genre', '%s').out().dedup().count()", 'G'},
      {"dq10", "g.V('uri', '%s').out().out().dedup().count()", 'M'},
      {"dq11", "g.V('uri', '%s').both.both.dedup().count()", 'M'},
      {"dq12", "g.V('uri', '%s').outE().has('section', 'Infobox').count()",
       'M'},
      {"dq13", "g.V('uri', '%s').outE().inV().dedup().count()", 'M'},
      {"dq16", "g.V.interval('longm', %s).out('isPartOf').dedup().count()",
       'L'},
      {"dq19",
       "g.V('uri', '%s').in('isPartOf').in('isPartOf').in('isPartOf')"
       ".simplePath().count()",
       'P'},
  };
  constexpr size_t kNumShapes = std::size(kShapes);
  sqlgraph::util::Rng rng(DeriveSeed(seed, kRequestStream));
  std::vector<std::vector<uint64_t>> decks;
  for (const Shape& s : kShapes) {
    const uint64_t domain = s.domain == 'T'   ? teams
                            : s.domain == 'M' ? misc
                            : s.domain == 'P' ? roots
                            : s.domain == 'G' ? std::size(kGenres)
                                              : 36;  // longm is 0..39
    decks.push_back(Deck(domain, kPointRounds, &rng));
  }
  auto constant = [&](char domain, uint64_t k) -> std::string {
    switch (domain) {
      case 'T':
        return StrFormat("http://dbpedia.org/resource/Team_%llu",
                         static_cast<unsigned long long>(k));
      case 'M':
        return StrFormat("http://dbpedia.org/resource/Misc_%llu",
                         static_cast<unsigned long long>(k));
      case 'P':
        return StrFormat("http://dbpedia.org/resource/Place_L0_%llu",
                         static_cast<unsigned long long>(k));
      case 'G':
        return kGenres[k];
      default:
        return StrFormat("%llu, %llu", static_cast<unsigned long long>(k),
                         static_cast<unsigned long long>(k + 5));
    }
  };

  std::vector<Request> out;
  size_t order[kNumShapes];
  for (size_t round = 0; round < kPointRounds; ++round) {
    for (size_t i = 0; i < kNumShapes; ++i) order[i] = i;
    for (size_t i = kNumShapes; i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    for (size_t idx : order) {
      const Shape& s = kShapes[idx];
      out.push_back({s.name,
                     StrFormat(s.text, constant(s.domain, decks[idx][round]).c_str()),
                     -1});
    }
  }
  return out;
}

bool LoadExpected(const std::string& path, std::vector<Request>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const size_t t1 = line.find('\t');
    const size_t t2 = t1 == std::string::npos ? t1 : line.find('\t', t1 + 1);
    if (t2 == std::string::npos) return false;
    Request r;
    r.shape = line.substr(0, t1);
    r.expected = std::stoll(line.substr(t1 + 1, t2 - t1 - 1));
    r.text = line.substr(t2 + 1);
    out->push_back(std::move(r));
  }
  return !out->empty();
}

// Executor operator kind, from the span text the executor records.
const char* OperatorKind(const std::string& op) {
  auto starts = [&](const char* p) { return op.rfind(p, 0) == 0; };
  if (op.find("left-outer join") != std::string::npos) return "left_outer_join";
  if (starts("index nested-loop join")) return "index_nl_join";
  if (starts("hash join")) return "hash_join";
  if (starts("seq scan") || starts("scan ") || starts("index lookup") ||
      starts("JSON index")) {
    return "scan";
  }
  if (starts("unnest")) return "unnest";
  if (starts("aggregate")) return "aggregate";
  if (starts("distinct") || starts("dedup")) return "distinct";
  if (starts("union") || starts("except") || starts("intersect") ||
      starts("set op")) {
    return "set_op";
  }
  return "other";
}

struct Setup {
  std::unique_ptr<core::SqlGraphStore> store;
  SetupTimes times;
};

bool BuildStore(Setup* setup, RunResult* result) {
  const double t0 = NowSeconds();
  graph::PropertyGraph g = graph::DbpediaGenerator(GraphConfig()).Generate();
  const double t1 = NowSeconds();
  auto store = core::SqlGraphStore::Build(g, PagedStoreConfig());
  const double t2 = NowSeconds();
  if (!store.ok()) {
    result->Problem("store build failed: " + store.status().ToString());
    result->check_failed = true;
    return false;
  }
  setup->store = std::move(*store);
  setup->times = {t1 - t0, t2 - t1, t2 - t0};
  return true;
}

// Pre-phase values of the process-global counters a phase reports deltas of.
struct Counters {
  uint64_t pool_hits = 0, pool_misses = 0, pool_evictions = 0;
  uint64_t tc_hits = 0, tc_misses = 0;
  uint64_t epoch = 0;

  static Counters Take(core::SqlGraphStore* store,
                       const gremlin::TranslationCache& cache) {
    Counters c;
    const auto* pool = store->db()->buffer_pool();
    c.pool_hits = pool->hits();
    c.pool_misses = pool->misses();
    c.pool_evictions = pool->evictions();
    c.tc_hits = cache.hits();
    c.tc_misses = cache.misses();
    c.epoch = store->schema_epoch();
    return c;
  }
};

class GremlinClient {
 public:
  GremlinClient(const Options& options, std::vector<Request> requests,
                core::SqlGraphStore* store, RunResult* result)
      : options_(options),
        requests_(std::move(requests)),
        store_(store),
        runtime_(store),
        translator_(&store->schema(), gremlin::TranslatorOptions()),
        result_(result),
        explain_rng_(DeriveSeed(options.seed, kExplainStream)) {
    cursor_ = requests_.size() * options.part / options.parts;
    // Built like the runtime's own cache (see GremlinRuntime's ctor).
    cache_.set_verify_attribution(store->config().verify_plans);
  }

  void WarmUp() {
    // About a second of the stream, which fills the plan and translation
    // caches and the buffer pool.
    const double until = NowSeconds() + 1.0;
    while (NowSeconds() < until) RunUntraced(Next());
    // The traced calls' own translation cache starts warm too.
    for (size_t i = 0; i < std::min<size_t>(requests_.size(), 64); ++i) {
      RunTraced(requests_[i], nullptr);
    }
  }

  /// Closed loop for `seconds`: each request's latency, and in `elapsed_s`
  /// the phase's wall time.
  sqlgraph::util::Samples Phase(double seconds, SpanBuffer* spans,
                                double* elapsed_s) {
    sqlgraph::util::Samples out;
    const double start = NowSeconds();
    const double until = start + seconds;
    double now = start;
    while (now < until) {
      const Request& req = Next();
      out.Add(spans != nullptr ? RunTraced(req, spans) : RunUntraced(req));
      now = NowSeconds();
    }
    *elapsed_s = now - start;
    return out;
  }

  Counters Snapshot() const { return Counters::Take(store_, cache_); }
  const sqlgraph::sql::ExecStats& exec_totals() const { return exec_totals_; }
  uint64_t traced_requests() const { return traced_requests_; }
  uint64_t analyzed_exec_ns() const { return analyzed_exec_ns_; }
  uint64_t explained() const { return explained_; }
  const std::map<std::string, double>& op_self_ns() const {
    return op_self_ns_;
  }
  uint64_t op_total_self_ns() const { return op_total_self_ns_; }

 private:
  const Request& Next() {
    const Request& r = requests_[cursor_];
    cursor_ = (cursor_ + 1) % requests_.size();
    return r;
  }

  void Check(const Request& req, const sqlgraph::util::Result<int64_t>& got,
             const char* via) {
    ++result_->attempted;
    if (got.ok() && *got == req.expected) return;
    ++result_->failed;
    result_->Problem(StrFormat(
        "%s (%s): %s, expected %lld: %s", req.shape.c_str(), via,
        got.ok() ? StrFormat("got %lld", static_cast<long long>(*got)).c_str()
                 : got.status().ToString().c_str(),
        static_cast<long long>(req.expected), req.text.c_str()));
  }

  static sqlgraph::util::Result<int64_t> Scalar(
      const sqlgraph::util::Result<sqlgraph::sql::ResultSet>& rs) {
    if (!rs.ok()) return rs.status();
    if (rs->rows.size() != 1 || rs->rows[0].empty() ||
        !rs->rows[0][0].is_number()) {
      return sqlgraph::util::Status::InvalidArgument("not a scalar result");
    }
    return rs->rows[0][0].AsInt();
  }

  double RunUntraced(const Request& req) {
    const uint64_t t0 = NowNanos();
    auto got = runtime_.Count(req.text);
    const double ms = static_cast<double>(NowNanos() - t0) * 1e-6;
    Check(req, got, "runtime");
    return ms;
  }

  // The runtime's Query path split into its public calls, one span each:
  // parse, translation cache, Prepare, ExecutePrepared (mirrors
  // GremlinRuntime::Run, including its fallback when Prepare rejects the
  // rendered text).
  double RunTraced(const Request& req, SpanBuffer* spans) {
    const uint64_t rid = ++request_id_;
    const uint64_t t0 = NowNanos();
    sqlgraph::util::Result<int64_t> got = int64_t{0};
    {
      ScopedTrace root(spans, "gremlin.request", 0, rid);
      got = TracedCalls(req, spans, root.id(), rid);
    }
    const double ms = static_cast<double>(NowNanos() - t0) * 1e-6;
    if (spans == nullptr) return ms;
    ++traced_requests_;
    Check(req, got, "traced");
    if (explain_rng_.Chance(kExplainShare)) Analyze(req, spans, rid);
    return ms;
  }

  sqlgraph::util::Result<int64_t> TracedCalls(const Request& req,
                                              SpanBuffer* spans,
                                              uint64_t parent,
                                              uint64_t rid) {
    sqlgraph::util::Result<gremlin::Pipeline> pipeline =
        sqlgraph::util::Status::Internal("unset");
    {
      ScopedTrace s(spans, "gremlin.parse", parent, rid);
      pipeline = gremlin::ParseGremlin(req.text);
    }
    if (!pipeline.ok()) return pipeline.status();
    sqlgraph::sql::ParamBindings binds;
    sqlgraph::util::Result<gremlin::CachedTranslation> cached =
        sqlgraph::util::Status::Internal("unset");
    {
      ScopedTrace s(spans, "gremlin.translate", parent, rid);
      cached = cache_.GetOrTranslate(translator_, *pipeline, &binds);
    }
    if (!cached.ok()) return cached.status();
    sqlgraph::util::Result<sqlgraph::sql::PreparedQueryPtr> prepared =
        sqlgraph::util::Status::Internal("unset");
    {
      ScopedTrace s(spans, "sql.prepare", parent, rid);
      prepared = store_->Prepare(cached->sql);
    }
    sqlgraph::sql::ExecStats stats;
    sqlgraph::util::Result<sqlgraph::sql::ResultSet> rs =
        sqlgraph::util::Status::Internal("unset");
    if (prepared.ok()) {
      ScopedTrace s(spans, "sql.execute", parent, rid);
      rs = store_->ExecutePrepared(**prepared, binds, &stats);
    } else {
      ScopedTrace s(spans, "sql.execute_unprepared", parent, rid);
      auto query = translator_.Translate(*pipeline);
      if (!query.ok()) return query.status();
      rs = store_->Execute(*query, &stats);
    }
    if (spans != nullptr) {
      exec_totals_.rows_scanned += stats.rows_scanned;
      exec_totals_.index_lookups += stats.index_lookups;
      exec_totals_.index_nl_joins += stats.index_nl_joins;
      exec_totals_.hash_joins += stats.hash_joins;
    }
    return Scalar(rs);
  }

  // EXPLAIN ANALYZE of a sampled request, by the calls
  // GremlinRuntime::ExplainAnalyze makes: parse, translate, ExecuteAnalyze.
  // The executor's operator spans become children of the ExecuteAnalyze
  // span (laid out back to back: the executor records durations, not start
  // times) and feed the per-kind self times. The wall time that
  // sql.unattributed_frac divides by is that same ExecuteAnalyze call.
  void Analyze(const Request& req, SpanBuffer* spans, uint64_t rid) {
    auto pipeline = gremlin::ParseGremlin(req.text);
    if (!pipeline.ok()) return Check(req, pipeline.status(), "analyze");
    auto query = translator_.Translate(*pipeline);
    if (!query.ok()) return Check(req, query.status(), "analyze");
    sqlgraph::sql::ExecStats stats;
    const size_t index = spans->spans().size();
    const uint64_t id = spans->Begin("sql.execute_analyze", 0, rid);
    auto rs = store_->ExecuteAnalyze(*query, &stats);
    spans->End(id);
    const uint64_t start = spans->spans()[index].start_ns;
    const uint64_t wall_ns = spans->spans()[index].duration_ns();
    Check(req, Scalar(rs), "analyze");
    if (!rs.ok()) return;
    // A recursive CTE's span encloses the operator spans of its own
    // context recorded before it; its self time excludes them.
    std::map<std::string, uint64_t> unclaimed_by_context;
    uint64_t total_self = 0;
    for (const obs::TraceSpan& s : stats.spans) {
      uint64_t self = s.ns;
      if (s.op == "recursive cte") {
        uint64_t& inner = unclaimed_by_context[s.context];
        self = s.ns > inner ? s.ns - inner : 0;
        inner = 0;
      } else {
        unclaimed_by_context[s.context] += s.ns;
      }
      const char* kind = OperatorKind(s.op);
      op_self_ns_[kind] += static_cast<double>(self);
      total_self += self;
      spans->AddLaidOut(std::string("sql.op.") + kind, s.context + ": " + s.op,
                        id, rid, start, s.ns);
    }
    op_total_self_ns_ += total_self;
    analyzed_exec_ns_ += wall_ns;
    ++explained_;
  }

  const Options& options_;
  std::vector<Request> requests_;
  size_t cursor_ = 0;
  core::SqlGraphStore* store_;
  gremlin::GremlinRuntime runtime_;
  gremlin::Translator translator_;
  gremlin::TranslationCache cache_;
  RunResult* result_;
  sqlgraph::util::Rng explain_rng_;
  uint64_t request_id_ = 0;
  uint64_t traced_requests_ = 0;
  sqlgraph::sql::ExecStats exec_totals_;
  std::map<std::string, double> op_self_ns_;
  uint64_t op_total_self_ns_ = 0;
  uint64_t analyzed_exec_ns_ = 0;
  uint64_t explained_ = 0;
};

}  // namespace

bool IsGremlinWorkload(const std::string& workload) {
  return workload == "gremlin_paged";
}

int RunGremlinOracle(const Options& options) {
  std::vector<Request> requests = PointRequests(options.seed);
  graph::PropertyGraph g =
      graph::DbpediaGenerator(GraphConfig()).Generate();
  sqlgraph::baseline::NativeStoreConfig native_config;
  native_config.indexed_keys = sqlgraph::bench::IndexedAttributeKeys();
  auto native = sqlgraph::baseline::NativeStore::Build(g, native_config);
  if (!native.ok()) {
    std::fprintf(stderr, "oracle: native store build failed: %s\n",
                 native.status().ToString().c_str());
    return 1;
  }
  std::unordered_map<std::string, int64_t> memo;
  std::ofstream out(options.expected_path);
  for (Request& r : requests) {
    auto it = memo.find(r.text);
    if (it == memo.end()) {
      sqlgraph::baseline::GremlinInterpreter interp(native->get());
      auto count = interp.Count(r.text);
      if (!count.ok()) {
        std::fprintf(stderr, "oracle: %s failed: %s\n", r.text.c_str(),
                     count.status().ToString().c_str());
        return 1;
      }
      it = memo.emplace(r.text, *count).first;
    }
    out << r.shape << '\t' << it->second << '\t' << r.text << '\n';
  }
  out.close();
  if (!out) {
    std::fprintf(stderr, "oracle: cannot write %s\n",
                 options.expected_path.c_str());
    return 1;
  }
  std::printf("oracle: %zu requests, %zu distinct\n", requests.size(),
              memo.size());
  return 0;
}

RunResult RunGremlin(const Options& options) {
  RunResult result;
  InitEndToEnd(&result.end_to_end);
  InitPerLayer(&result.per_layer);

  std::vector<Request> requests;
  if (!LoadExpected(options.expected_path, &requests)) {
    result.Problem("cannot read oracle file " + options.expected_path);
    result.check_failed = true;
    return result;
  }
  // The oracle file must describe exactly this seed's request stream.
  const std::vector<Request> regenerated = PointRequests(options.seed);
  bool same = regenerated.size() == requests.size();
  for (size_t i = 0; same && i < requests.size(); ++i) {
    same = requests[i].text == regenerated[i].text;
  }
  if (!same) {
    result.Problem("oracle file does not match the request stream");
    result.check_failed = true;
    return result;
  }

  Setup setup;
  if (!BuildStore(&setup, &result)) return result;
  core::SqlGraphStore* store = setup.store.get();
  const double store_mb_built =
      static_cast<double>(store->SerializedBytes()) / (1 << 20);
  std::printf("setup: %zu vertices, %zu edges, %.1f MiB serialized, "
              "setup %.3f s\n",
              store->load_stats().num_vertices, store->load_stats().num_edges,
              store_mb_built, setup.times.total_s);

  GremlinClient client(options, std::move(requests), store, &result);
  client.WarmUp();

  obs::MetricsRegistry::Default().ResetAll();
  Counters before = client.Snapshot();
  double elapsed_s = 0;
  const sqlgraph::util::Samples lat =
      client.Phase(options.seconds, nullptr, &elapsed_s);
  Counters after = client.Snapshot();
  const double pool_hits = static_cast<double>(after.pool_hits - before.pool_hits);
  const double pool_misses =
      static_cast<double>(after.pool_misses - before.pool_misses);
  const double hit_ratio = Ratio(pool_hits, pool_hits + pool_misses);

  MetricSet& e2e = result.end_to_end;
  e2e.Set("throughput_ops_s",
          Ratio(static_cast<double>(lat.count()), elapsed_s), "ops/s");
  e2e.Set("latency_p50_ms", lat.Percentile(0.50), "ms");
  e2e.Set("latency_p95_ms", lat.Percentile(0.95), "ms");
  result.workload_specific.Set("latency_p99_ms", lat.Percentile(0.99), "ms");
  e2e.Set("setup_s", setup.times.total_s, "s");
  e2e.Set("store_mb", static_cast<double>(store->SerializedBytes()) / (1 << 20),
          "MiB");
  std::printf("timed: %zu queries in %.3f s (closed loop, 1 client)\n",
              lat.count(), elapsed_s);
  std::printf("paged: pool %.1f MiB vs store %.1f MiB serialized, "
              "hit ratio %.4f, %.0f misses\n",
              static_cast<double>(kPagedPoolBytes) / (1 << 20), store_mb_built,
              hit_ratio, pool_misses);
  result.workload_specific.Set(
      "pool_mb", static_cast<double>(kPagedPoolBytes) / (1 << 20), "MiB");
  result.workload_specific.Set("buffer_pool_hit_ratio", hit_ratio, "fraction");

  if (options.trace) {
    SpanBuffer spans(0);
    obs::MetricsRegistry::Default().ResetAll();
    before = client.Snapshot();
    const uint64_t traced0 = client.traced_requests();
    const sqlgraph::util::Samples traced_lat =
        client.Phase(options.seconds, &spans, &elapsed_s);
    after = client.Snapshot();
    const double n = static_cast<double>(client.traced_requests() - traced0);

    MetricSet& pl = result.per_layer;
    const auto self = SelfTimesByName({&spans});
    auto median_us = [&](const char* name) {
      auto it = self.find(name);
      if (it == self.end()) return 0.0;
      sqlgraph::util::Samples us;
      for (uint64_t ns : it->second) us.Add(static_cast<double>(ns) * 1e-3);
      return us.Percentile(0.5);
    };
    pl.Set("gremlin.parse_us", median_us("gremlin.parse"), "us");
    pl.Set("gremlin.translate_us", median_us("gremlin.translate"), "us");
    pl.Set("gremlin.translation_cache.hit_ratio",
           Ratio(static_cast<double>(after.tc_hits - before.tc_hits),
                 static_cast<double>(after.tc_hits - before.tc_hits +
                                     after.tc_misses - before.tc_misses)),
           "fraction");
    pl.Set("sql.prepare_us", median_us("sql.prepare"), "us");
    pl.Set("sql.execute_us", median_us("sql.execute"), "us");
    SetRegistryMetrics(n, &pl);
    const auto& ex = client.exec_totals();
    pl.Set("sql.rows_scanned_per_query",
           Ratio(static_cast<double>(ex.rows_scanned), n), "count");
    pl.Set("sql.index_lookups_per_query",
           Ratio(static_cast<double>(ex.index_lookups), n), "count");
    pl.Set("sql.index_nl_joins_per_query",
           Ratio(static_cast<double>(ex.index_nl_joins), n), "count");
    pl.Set("sql.hash_joins_per_query",
           Ratio(static_cast<double>(ex.hash_joins), n), "count");
    const double explained = static_cast<double>(client.explained());
    for (const auto& [kind, ns] : client.op_self_ns()) {
      pl.Set("sql.op." + kind + "_self_ms", Ratio(ns * 1e-6, explained), "ms");
    }
    const double exec_ns = static_cast<double>(client.analyzed_exec_ns());
    pl.Set("sql.unattributed_frac",
           Ratio(exec_ns - static_cast<double>(client.op_total_self_ns()),
                 exec_ns),
           "fraction");
    const double d_hits = static_cast<double>(after.pool_hits - before.pool_hits);
    const double d_misses =
        static_cast<double>(after.pool_misses - before.pool_misses);
    pl.Set("rel.buffer_pool.hit_ratio", Ratio(d_hits, d_hits + d_misses),
           "fraction");
    pl.Set("rel.buffer_pool.misses_per_query", Ratio(d_misses, n), "count");
    pl.Set("rel.buffer_pool.evictions_per_query",
           Ratio(static_cast<double>(after.pool_evictions -
                                     before.pool_evictions),
                 n),
           "count");
    pl.Set("store.schema_epoch_bumps_per_kop",
           Ratio(static_cast<double>(after.epoch - before.epoch) * 1e3, n),
           "count");
    SetSetupMetrics(setup.times, store->load_stats(), &pl);
    // Tracing cost: mean latency of traced requests (without the sampled
    // EXPLAIN ANALYZE calls, which are extra work) over untraced ones.
    pl.Set("trace.overhead_frac", Ratio(traced_lat.mean(), lat.mean()) - 1.0,
           "fraction");
    std::printf("traced: %zu queries, %.0f explained, %zu spans\n",
                traced_lat.count(), explained, spans.spans().size());
    const std::string span_path = StrFormat(
        "%s/spans-%s-%llu.jsonl", options.work_dir.c_str(),
        options.workload.c_str(), static_cast<unsigned long long>(options.seed));
    if (!WriteSpans({&spans}, span_path)) {
      result.Problem("cannot write span file " + span_path);
      result.check_failed = true;
    } else {
      std::printf("spans: %s\n", span_path.c_str());
    }
  }

  e2e.Set("peak_rss_mb", PeakRssMb(), "MiB");
  result.workload_specific.Set(
      "error_rate",
      Ratio(static_cast<double>(result.failed),
            static_cast<double>(result.attempted)),
      "fraction");
  return result;
}

}  // namespace perfbench
