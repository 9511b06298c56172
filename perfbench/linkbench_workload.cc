#include "linkbench_workload.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "graph/linkbench_gen.h"
#include "json/json_parser.h"
#include "obs/metrics.h"
#include "sqlgraph/store.h"
#include "tracing.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "wal/durability.h"

namespace perfbench {

using sqlgraph::util::Status;
using sqlgraph::util::StatusCode;
using sqlgraph::util::StrFormat;
namespace core = sqlgraph::core;
namespace graph = sqlgraph::graph;
namespace json = sqlgraph::json;
namespace obs = sqlgraph::obs;
using graph::LinkBenchOp;

namespace {

// 50k objects (~215k edges): rows far outnumber the requesters, and a
// set-up stays short enough to repeat within a run.
constexpr size_t kObjects = 50000;
// Each phase runs a fixed number of ops per requester rather than a fixed
// time. The store's state drifts as the stream runs: Zipf-hot nodes get
// deleted, so later ops hit NotFound more often and run faster, and
// adjacency lists change shape. A time-boxed phase would let a faster run
// reach a cheaper state; a fixed op count gives every run the same
// trajectory. The per-second quota makes a phase last about --seconds at
// this workload's present speed on a 4-vCPU machine (~56k ops/s).
constexpr uint64_t kOpsPerRequesterSecond = 28000;
// Two requesters contend for the table locks and still leave the machine
// idle cores. Four requesters on four vCPUs spread 41k-63k ops/s over
// repeats of one seed: that measured the scheduler, not the store.
constexpr size_t kMaxRequesters = 2;
// The graph is the same for every seed, as a benchmark's dataset is; the
// seed makes the request streams.
constexpr uint64_t kGraphSeed = 20150531;
// A phase that has run this many times its nominal length stops where it
// is, so that a much slower program still finishes the run and reports
// figures for the ops it completed.
constexpr double kPhaseCapFactor = 3.0;
constexpr double kWarmupSeconds = 1.0;
// The traced phase runs an eighth of the timed phase's ops: enough for
// per-op medians, while its span file stays in the tens of MB.
constexpr uint64_t kTracedShare = 8;
// Share of acknowledged writes whose entity is re-read after recovery.
constexpr double kDurabilitySample = 1.0 / 32;
// Op (of requester 0's timed phase) whose status the "status" plant forces.
constexpr uint64_t kPlantedOp = 100;

enum Stream : uint64_t {
  kRequesterStream = 100,
  kSampleStream = 200,
};

bool IsRead(LinkBenchOp op) {
  return op == LinkBenchOp::kGetNode || op == LinkBenchOp::kCountLink ||
         op == LinkBenchOp::kMultigetLink || op == LinkBenchOp::kGetLinkList;
}

// OK, NotFound and AlreadyExists are outcomes of the workload itself
// (random ids race with deletes); anything else is a failure.
bool Acceptable(const Status& st) {
  return st.ok() || st.code() == StatusCode::kNotFound ||
         st.code() == StatusCode::kAlreadyExists;
}

struct Requester {
  Requester(const graph::LinkBenchConfig& config, uint64_t seed, uint32_t index)
      : workload(config, DeriveSeed(seed, kRequesterStream + index)),
        sample_rng(DeriveSeed(seed, kSampleStream + index)),
        spans(index) {}

  graph::LinkBenchWorkload workload;
  sqlgraph::util::Rng sample_rng;
  SpanBuffer spans;
  // Reset per phase. The latencies of the requests in issue order, and by
  // op kind.
  sqlgraph::util::Samples samples;
  sqlgraph::util::Samples op_latency_ms[10];
  uint64_t ops = 0, writes = 0, notfound = 0, failed = 0;
  bool capped = false;  // stopped by the phase's wall-clock cap
  std::vector<std::string> problems;
  // Whole run: sampled acknowledged writes.
  std::set<int64_t> vertices, edges;

  void ResetPhase() {
    samples = sqlgraph::util::Samples();
    for (auto& v : op_latency_ms) v = sqlgraph::util::Samples();
    ops = writes = notfound = failed = 0;
    capped = false;
    problems.clear();
  }
};

// One LinkBench request as the store's stored-procedure CRUD calls, each
// wrapped in a span when `spans` is set. Returns the op's worst status and
// records sampled acknowledged writes.
class OpRunner {
 public:
  OpRunner(core::SqlGraphStore* store, const graph::LinkBenchConfig& config,
           Requester* r, SpanBuffer* spans, uint64_t parent, uint64_t rid)
      : store_(store), config_(config), r_(r), spans_(spans), parent_(parent),
        rid_(rid) {}

  Status Run(const graph::LinkBenchRequest& req) {
    switch (req.op) {
      case LinkBenchOp::kAddNode: {
        json::JsonValue attrs = json::JsonValue::Object();
        attrs.Set("type", static_cast<int64_t>(
                              req.id2 % static_cast<int64_t>(
                                            config_.num_object_types)));
        attrs.Set("version", int64_t{1});
        attrs.Set("time", int64_t{1400000000});
        attrs.Set("data", req.payload);
        ScopedTrace s(spans_, "store.AddVertex", parent_, rid_);
        auto vid = store_->AddVertex(std::move(attrs));
        if (vid.ok()) Ack(&r_->vertices, *vid);
        return vid.status();
      }
      case LinkBenchOp::kUpdateNode: {
        ScopedTrace s(spans_, "store.SetVertexAttr", parent_, rid_);
        Status st =
            store_->SetVertexAttr(req.id1, "data", json::JsonValue(req.payload));
        if (st.ok()) Ack(&r_->vertices, req.id1);
        return st;
      }
      case LinkBenchOp::kDeleteNode: {
        ScopedTrace s(spans_, "store.RemoveVertex", parent_, rid_);
        Status st = store_->RemoveVertex(req.id1);
        if (st.ok()) Ack(&r_->vertices, req.id1);
        return st;
      }
      case LinkBenchOp::kGetNode: {
        ScopedTrace s(spans_, "store.GetVertex", parent_, rid_);
        return store_->GetVertex(req.id1).status();
      }
      case LinkBenchOp::kAddLink:
        return AddLink(req);
      case LinkBenchOp::kDeleteLink: {
        auto found = FindEdge(req.id1, req.assoc_type, req.id2);
        if (!found.ok()) return found.status();
        if (!found->has_value()) return Status::NotFound("no such link");
        ScopedTrace s(spans_, "store.RemoveEdge", parent_, rid_);
        Status st = store_->RemoveEdge(**found);
        if (st.ok()) Ack(&r_->edges, **found);
        return st;
      }
      case LinkBenchOp::kUpdateLink: {
        auto found = FindEdge(req.id1, req.assoc_type, req.id2);
        if (!found.ok()) return found.status();
        if (!found->has_value()) return AddLink(req);  // update-or-insert
        ScopedTrace s(spans_, "store.SetEdgeAttr", parent_, rid_);
        Status st = store_->SetEdgeAttr(**found, "data",
                                        json::JsonValue(req.payload));
        if (st.ok()) Ack(&r_->edges, **found);
        return st;
      }
      case LinkBenchOp::kCountLink: {
        ScopedTrace s(spans_, "store.CountOutEdges", parent_, rid_);
        return store_->CountOutEdges(req.id1, req.assoc_type).status();
      }
      case LinkBenchOp::kMultigetLink: {
        auto a = FindEdge(req.id1, req.assoc_type, req.id2);
        auto b = FindEdge(req.id1, req.assoc_type,
                          (req.id2 + 1) %
                              static_cast<int64_t>(config_.num_objects));
        return !Acceptable(a.status()) ? a.status() : b.status();
      }
      case LinkBenchOp::kGetLinkList: {
        ScopedTrace s(spans_, "store.GetOutEdges", parent_, rid_);
        return store_->GetOutEdges(req.id1, req.assoc_type).status();
      }
    }
    return Status::Internal("unknown LinkBench op");
  }

 private:
  Status AddLink(const graph::LinkBenchRequest& req) {
    json::JsonValue attrs = json::JsonValue::Object();
    attrs.Set("visibility", int64_t{1});
    attrs.Set("timestamp", int64_t{1400000000});
    attrs.Set("data", req.payload);
    ScopedTrace s(spans_, "store.AddEdge", parent_, rid_);
    auto eid = store_->AddEdge(req.id1, req.id2, req.assoc_type,
                               std::move(attrs));
    if (eid.ok()) Ack(&r_->edges, *eid);
    return eid.status();
  }

  sqlgraph::util::Result<std::optional<core::EdgeId>> FindEdge(
      core::VertexId src, const std::string& label, core::VertexId dst) {
    ScopedTrace s(spans_, "store.FindEdge", parent_, rid_);
    return store_->FindEdge(src, label, dst);
  }

  void Ack(std::set<int64_t>* sample, int64_t id) {
    if (r_->sample_rng.Chance(kDurabilitySample)) sample->insert(id);
  }

  core::SqlGraphStore* store_;
  const graph::LinkBenchConfig& config_;
  Requester* r_;
  SpanBuffer* spans_;
  uint64_t parent_;
  uint64_t rid_;
};

enum class PhaseKind { kWarmup, kTimed, kTraced };

class LinkBenchRunner {
 public:
  LinkBenchRunner(const Options& options, const graph::LinkBenchConfig& config,
                  core::SqlGraphStore* store, size_t requesters)
      : options_(options), config_(config), store_(store) {
    for (size_t i = 0; i < requesters; ++i) {
      requesters_.push_back(std::make_unique<Requester>(
          config, options.seed, static_cast<uint32_t>(i)));
    }
  }

  /// Runs every requester closed-loop for `ops` requests each, or until
  /// kPhaseCapFactor times `nominal_s` has passed; returns the wall time.
  double Phase(PhaseKind kind, uint64_t ops, double nominal_s) {
    for (auto& r : requesters_) r->ResetPhase();
    const uint64_t start_ns = NowNanos();
    const uint64_t cap_ns =
        start_ns + static_cast<uint64_t>(nominal_s * kPhaseCapFactor * 1e9);
    std::vector<std::thread> threads;
    threads.reserve(requesters_.size());
    for (size_t i = 0; i < requesters_.size(); ++i) {
      threads.emplace_back([this, i, kind, cap_ns, ops] {
        Loop(requesters_[i].get(), i, kind, cap_ns, ops);
      });
    }
    for (auto& t : threads) t.join();
    return static_cast<double>(NowNanos() - start_ns) * 1e-9;
  }

  const std::vector<std::unique_ptr<Requester>>& requesters() const {
    return requesters_;
  }

 private:
  void Loop(Requester* r, size_t index, PhaseKind kind, uint64_t cap_ns,
            uint64_t ops) {
    static const std::vector<std::string> kSpanNames = [] {
      std::vector<std::string> names;
      for (const char* op : kLinkBenchOpKeys) {
        names.push_back(std::string("linkbench.") + op);
      }
      return names;
    }();
    SpanBuffer* spans = kind == PhaseKind::kTraced ? &r->spans : nullptr;
    uint64_t rid = (uint64_t{index} << 40) + r->spans.spans().size();
    while (r->ops < ops) {
      const graph::LinkBenchRequest req = r->workload.Next();
      const auto op = static_cast<size_t>(req.op);
      ++rid;
      const uint64_t t0 = NowNanos();
      Status st;
      {
        ScopedTrace root(spans, kSpanNames[op].c_str(), 0, rid);
        OpRunner runner(store_, config_, r, spans, root.id(), rid);
        st = runner.Run(req);
      }
      const uint64_t t1 = NowNanos();
      const double ms = static_cast<double>(t1 - t0) * 1e-6;
      ++r->ops;
      if (options_.plant == "status" && index == 0 &&
          kind == PhaseKind::kTimed && r->ops == kPlantedOp) {
        st = Status::Internal("planted fault: forced non-OK op status");
      }
      if (!Acceptable(st)) Fail(r, req, st);
      if (kind != PhaseKind::kWarmup) {
        r->op_latency_ms[op].Add(ms);
        r->samples.Add(ms);
        if (!IsRead(req.op)) ++r->writes;
        if (st.code() == StatusCode::kNotFound) ++r->notfound;
      }
      if (t1 >= cap_ns && r->ops < ops) {
        r->capped = true;
        break;
      }
    }
  }

  void Fail(Requester* r, const graph::LinkBenchRequest& req,
            const Status& st) {
    ++r->failed;
    if (r->problems.size() < 5) {
      r->problems.push_back(StrFormat("%s(%lld, %lld): %s",
                                      graph::LinkBenchOpName(req.op),
                                      static_cast<long long>(req.id1),
                                      static_cast<long long>(req.id2),
                                      st.ToString().c_str()));
    }
  }

  const Options& options_;
  const graph::LinkBenchConfig& config_;
  core::SqlGraphStore* store_;
  std::vector<std::unique_ptr<Requester>> requesters_;
};

struct PhaseTotals {
  std::vector<sqlgraph::util::Samples> requesters;
  sqlgraph::util::Samples all, reads, writes;
  uint64_t ops = 0, write_ops = 0, notfound = 0, failed = 0;
  bool capped = false;
};

PhaseTotals Collect(const LinkBenchRunner& runner, RunResult* result) {
  PhaseTotals t;
  for (const auto& r : runner.requesters()) {
    t.requesters.push_back(r->samples);
    for (double ms : r->samples.values()) t.all.Add(ms);
    for (size_t op = 0; op < 10; ++op) {
      auto& side = IsRead(static_cast<LinkBenchOp>(op)) ? t.reads : t.writes;
      for (double ms : r->op_latency_ms[op].values()) side.Add(ms);
    }
    t.capped = t.capped || r->capped;
    t.ops += r->ops;
    t.write_ops += r->writes;
    t.notfound += r->notfound;
    t.failed += r->failed;
    for (const auto& p : r->problems) result->Problem(p);
  }
  result->attempted += t.ops;
  result->failed += t.failed;
  return t;
}

// A sampled entity's state: its status code and, when present, its
// canonical content.
std::string VertexState(const core::SqlGraphStore& store, int64_t vid) {
  auto v = store.GetVertex(vid);
  if (!v.ok()) return "status " + std::to_string(static_cast<int>(v.status().code()));
  return json::Write(*v);
}

std::string EdgeState(const core::SqlGraphStore& store, int64_t eid) {
  auto e = store.GetEdge(eid);
  if (!e.ok()) return "status " + std::to_string(static_cast<int>(e.status().code()));
  return StrFormat("%lld->%lld %s ", static_cast<long long>(e->src),
                   static_cast<long long>(e->dst), e->label.c_str()) +
         json::Write(e->attrs);
}

// Closes the store cleanly and reopens it with OpenDurableStore, timed as
// recovery_s. The audit must be clean again, and every sampled entity with
// an acknowledged write must read back as it stood before the close.
void CheckRecovery(const core::StoreConfig& store_config,
                   const LinkBenchRunner& runner,
                   std::unique_ptr<core::SqlGraphStore>* store,
                   RunResult* result) {
  std::set<int64_t> vertices, edges;
  for (const auto& r : runner.requesters()) {
    vertices.insert(r->vertices.begin(), r->vertices.end());
    edges.insert(r->edges.begin(), r->edges.end());
  }
  std::map<int64_t, std::string> vertex_before, edge_before;
  for (int64_t v : vertices) vertex_before[v] = VertexState(**store, v);
  for (int64_t e : edges) edge_before[e] = EdgeState(**store, e);

  store->reset();  // clean close: syncs the log of every acknowledged write
  const double r0 = NowSeconds();
  auto reopened = sqlgraph::wal::OpenDurableStore(store_config);
  const double recovery_s = NowSeconds() - r0;
  if (!reopened.ok()) {
    result->Problem("reopen failed: " + reopened.status().ToString());
    result->check_failed = true;
  } else {
    *store = std::move(*reopened);
    const sqlgraph::wal::WalStats rec = (*store)->wal_stats();
    result->per_layer.Set("wal.replay_ms",
                          static_cast<double>(rec.replay_micros) * 1e-3, "ms");
    result->per_layer.Set("wal.recovered_records",
                          static_cast<double>(rec.recovered_records), "count");
    const core::ConsistencyReport audit = (*store)->CheckConsistency();
    if (!audit.ok()) {
      result->Problem("consistency audit after recovery: " + audit.ToString());
      result->check_failed = true;
    }
    size_t lost = 0;
    for (const auto& [v, state] : vertex_before) {
      if (VertexState(**store, v) != state && lost++ < 3) {
        result->Problem(StrFormat("vertex %lld changed across recovery",
                                  static_cast<long long>(v)));
      }
    }
    for (const auto& [e, state] : edge_before) {
      if (EdgeState(**store, e) != state && lost++ < 3) {
        result->Problem(StrFormat("edge %lld changed across recovery",
                                  static_cast<long long>(e)));
      }
    }
    if (lost > 0) result->check_failed = true;
    std::printf("recovery: %.3f s, %llu records replayed, %zu vertices and "
                "%zu edges from acknowledged writes re-read, %zu differ\n",
                recovery_s, static_cast<unsigned long long>(rec.recovered_records),
                vertex_before.size(), edge_before.size(), lost);
  }
  result->workload_specific.Set("recovery_s", recovery_s, "s");
}

}  // namespace

RunResult RunLinkBench(const Options& options) {
  RunResult result;
  InitEndToEnd(&result.end_to_end);
  InitPerLayer(&result.per_layer);

  graph::LinkBenchConfig config;
  config.num_objects = kObjects;
  config.seed = kGraphSeed;
  const std::string dir = StrFormat(
      "%s/linkbench-%llu", options.work_dir.c_str(),
      static_cast<unsigned long long>(options.seed));
  core::StoreConfig store_config;
  store_config.durability_dir = dir;
  // Every write is logged, and a clean close syncs the log, so the close and
  // reopen below still check recovery. The log is not fsynced per commit:
  // with kBatched group commit, fsync latency on the shared virtual disk
  // moved throughput between 18k and 58k ops/s over repeats of one seed.
  store_config.wal_sync_mode = sqlgraph::wal::SyncMode::kNone;

  // ------------------------------------------------------------ set-up --
  std::unique_ptr<core::SqlGraphStore> store;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const double t0 = NowSeconds();
  graph::PropertyGraph g = graph::GenerateLinkBenchGraph(config);
  const double t1 = NowSeconds();
  auto built = sqlgraph::wal::BuildDurableStore(g, store_config);
  const double t2 = NowSeconds();
  if (!built.ok()) {
    result.Problem("durable store build failed: " + built.status().ToString());
    result.check_failed = true;
    return result;
  }
  store = std::move(*built);
  const SetupTimes setup = {t1 - t0, t2 - t1, t2 - t0};
  const size_t requesters = std::max<size_t>(
      1, std::min<size_t>(kMaxRequesters, std::thread::hardware_concurrency()));
  std::printf("setup: %zu vertices, %zu edges, %.1f MiB serialized, "
              "setup %.3f s, %zu requesters, unsynced WAL\n",
              store->load_stats().num_vertices, store->load_stats().num_edges,
              static_cast<double>(store->SerializedBytes()) / (1 << 20),
              setup.total_s, requesters);

  LinkBenchRunner runner(options, config, store.get(), requesters);
  // Warm-up continues each requester's stream; its ops are checked too.
  const auto ops_for = [](double seconds) {
    return static_cast<uint64_t>(seconds * kOpsPerRequesterSecond);
  };
  runner.Phase(PhaseKind::kWarmup, ops_for(kWarmupSeconds), kWarmupSeconds);
  Collect(runner, &result);

  // ------------------------------------------------------ timed phase --
  obs::MetricsRegistry::Default().ResetAll();
  const double elapsed = runner.Phase(PhaseKind::kTimed,
                                     ops_for(options.seconds), options.seconds);
  const PhaseTotals timed = Collect(runner, &result);

  MetricSet& e2e = result.end_to_end;
  e2e.Set("throughput_ops_s", Ratio(static_cast<double>(timed.ops), elapsed),
          "ops/s");
  e2e.Set("latency_p50_ms", timed.all.Percentile(0.50), "ms");
  e2e.Set("latency_p95_ms", timed.all.Percentile(0.95), "ms");
  e2e.Set("setup_s", setup.total_s, "s");
  MetricSet& ws = result.workload_specific;
  ws.Set("latency_p99_ms", timed.all.Percentile(0.99), "ms");
  ws.Set("read_p50_ms", timed.reads.Percentile(0.50), "ms");
  ws.Set("read_p99_ms", timed.reads.Percentile(0.99), "ms");
  ws.Set("write_p50_ms", timed.writes.Percentile(0.50), "ms");
  ws.Set("write_p99_ms", timed.writes.Percentile(0.99), "ms");
  std::printf("timed: %llu ops in %.3f s (closed loop, %zu requesters), "
              "%zu reads, %zu writes, %llu NotFound\n",
              static_cast<unsigned long long>(timed.ops), elapsed, requesters,
              timed.reads.count(), timed.writes.count(),
              static_cast<unsigned long long>(timed.notfound));
  if (timed.capped) {
    std::printf("timed: stopped at the wall-clock cap (%g x --seconds) "
                "before every requester ran its ops\n", kPhaseCapFactor);
  }

  // ----------------------------------------------------- traced phase --
  if (options.trace) {
    obs::MetricsRegistry::Default().ResetAll();
    const sqlgraph::wal::WalStats wal0 = store->wal_stats();
    const uint64_t epoch0 = store->schema_epoch();
    runner.Phase(PhaseKind::kTraced, ops_for(options.seconds) / kTracedShare,
                 options.seconds / kTracedShare);
    const sqlgraph::wal::WalStats wal1 = store->wal_stats();
    const uint64_t epoch1 = store->schema_epoch();
    const PhaseTotals traced = Collect(runner, &result);
    const double kops = static_cast<double>(traced.ops) / 1e3;

    MetricSet& pl = result.per_layer;
    std::vector<const SpanBuffer*> buffers;
    for (const auto& r : runner.requesters()) buffers.push_back(&r->spans);
    // Each op's root span covers its CRUD calls: its duration is the op's
    // latency as the store's stored procedures deliver it.
    for (size_t op = 0; op < 10; ++op) {
      const std::string root = std::string("linkbench.") + kLinkBenchOpKeys[op];
      sqlgraph::util::Samples us;
      for (const SpanBuffer* b : buffers) {
        for (const Span& s : b->spans()) {
          if (s.name != root) continue;
          us.Add(static_cast<double>(s.duration_ns()) * 1e-3);
        }
      }
      pl.Set(std::string("store.") + kLinkBenchOpKeys[op] + "_us",
             us.Percentile(0.5), "us");
    }
    SetRegistryMetrics(static_cast<double>(traced.ops), &pl);
    pl.Set("store.schema_epoch_bumps_per_kop",
           Ratio(static_cast<double>(epoch1 - epoch0), kops), "count");
    pl.Set("store.notfound_per_kop",
           Ratio(static_cast<double>(traced.notfound), kops), "count");
    pl.Set("wal.bytes_per_write_op",
           Ratio(static_cast<double>(wal1.bytes - wal0.bytes),
                 static_cast<double>(traced.write_ops)),
           "bytes");
    SetSetupMetrics(setup, store->load_stats(), &pl);
    // The store drifts along the stream (see kOpsPerRequesterSecond), so
    // the untraced baseline is the end of the timed phase: each requester's
    // last ops, as many as the traced phase ran.
    sqlgraph::util::RunningStat recent;
    for (const sqlgraph::util::Samples& r : timed.requesters) {
      const std::vector<double>& ms = r.values();
      const size_t from = ms.size() - ms.size() / kTracedShare;
      for (size_t i = from; i < ms.size(); ++i) recent.Add(ms[i]);
    }
    pl.Set("trace.overhead_frac",
           Ratio(traced.all.mean(), recent.mean()) - 1.0, "fraction");
    size_t span_count = 0;
    for (const SpanBuffer* b : buffers) span_count += b->spans().size();
    const std::string span_path = StrFormat(
        "%s/spans-linkbench_mix-%llu.jsonl", options.work_dir.c_str(),
        static_cast<unsigned long long>(options.seed));
    if (!WriteSpans(buffers, span_path)) {
      result.Problem("cannot write span file " + span_path);
      result.check_failed = true;
    } else {
      std::printf("traced: %llu ops, %zu spans: %s\n",
                  static_cast<unsigned long long>(traced.ops), span_count,
                  span_path.c_str());
    }
  }

  // -------------------------------------- audit, close, recover, compare --
  const core::ConsistencyReport live_audit = store->CheckConsistency();
  if (!live_audit.ok()) {
    result.Problem("consistency audit after the run: " + live_audit.ToString());
    result.check_failed = true;
  }
  e2e.Set("store_mb", static_cast<double>(store->SerializedBytes()) / (1 << 20),
          "MiB");
  // Only the parts run.py asks for it close and reopen the store: the check
  // takes longer than the timed phase it follows.
  if (options.check_recovery) {
    CheckRecovery(store_config, runner, &store, &result);
  }
  store.reset();
  std::filesystem::remove_all(dir, ec);

  e2e.Set("peak_rss_mb", PeakRssMb(), "MiB");
  ws.Set("error_rate",
         Ratio(static_cast<double>(result.failed),
               static_cast<double>(result.attempted)),
         "fraction");
  return result;
}

}  // namespace perfbench
