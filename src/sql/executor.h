// Set-oriented execution of the SQL AST against a rel::Database.
//
// The executor evaluates CTEs in order into materialized temporary
// relations, then the final SELECT. Join processing is pipelined left to
// right with the access paths chosen by sql/planner.h:
//
//   * index nested-loop join when the inbound equi-join columns are covered
//     by a base-table index (the OPA/IPA/EA fast path),
//   * hash join otherwise,
//   * lateral expansion for TABLE(VALUES ...) unnest,
//   * left-outer hash join for the OSA/ISA COALESCE templates.
//
// Recursive CTEs run semi-naively with a global dedup (UNION-style fixpoint)
// and an iteration cap, mirroring the paper's recursive-SQL fallback for
// unbounded loop pipes.
//
// Prepared queries: Prepare() lexes/parses once and returns a PreparedQuery
// holding the shared AST plus a PlanMemo that records the per-table-ref
// access-path decisions on first execution; ExecutePrepared() replays them
// with fresh bind values, skipping lex/parse/plan. A PlanCache (LRU keyed by
// normalized SQL text) shares PreparedQuery instances across Executor
// instances. A compiled statement depends only on its text and the index
// catalog, so row rewrites (adjacency reshapes, spill rows, compaction)
// never invalidate it; a memoized index that has since been dropped re-plans
// that table ref (see PlanMemo).

#ifndef SQLGRAPH_SQL_EXECUTOR_H_
#define SQLGRAPH_SQL_EXECUTOR_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "rel/database.h"
#include "sql/ast.h"
#include "sql/expr_eval.h"
#include "sql/result.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sqlgraph {
namespace sql {

/// Execution counters, exposed so tests can assert that the planner picked
/// the intended access path (e.g. "this query must not sequential-scan EA").
struct ExecStats {
  uint64_t table_scans = 0;
  uint64_t index_lookups = 0;
  uint64_t index_range_scans = 0;
  uint64_t hash_joins = 0;
  uint64_t index_nl_joins = 0;
  uint64_t rows_scanned = 0;
  uint64_t recursive_iterations = 0;
  /// Prepared-query pipeline: executions that reused a cached plan vs.
  /// executions that had to lex/parse/plan.
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  /// Nanoseconds spent preparing (lex+parse) and executing.
  uint64_t prepare_ns = 0;
  uint64_t exec_ns = 0;
  /// Plan verification (sql/verify.h): passes run and plans rejected. A
  /// prepared statement counts at most twice (AST pass, then memo pass).
  uint64_t plans_verified = 0;
  uint64_t plan_verify_rejections = 0;
  /// EXPLAIN-style trace: one line per access-path / join decision, prefixed
  /// by the CTE being evaluated.
  std::vector<std::string> trace;
  /// EXPLAIN ANALYZE spans: per-operator rows + wall time, in execution
  /// order. Only populated when Options::analyze is set (the timing clock
  /// reads are not free); `context` is the CTE name or "final".
  std::vector<obs::TraceSpan> spans;
};

class PlanMemo;

/// An immutable compiled statement: shared parsed AST and the memoized
/// access-path decisions. Thread-safe to execute concurrently; the memo
/// fills in on first execution.
class PreparedQuery {
 public:
  const SqlQuery& query() const { return *ast_; }
  int param_count() const { return ast_->num_params; }
  PlanMemo* memo() const { return memo_.get(); }

 private:
  friend class Executor;
  friend class PlanCache;
  static std::shared_ptr<const PreparedQuery> Create(SqlQuery ast);
  std::shared_ptr<const SqlQuery> ast_;
  std::shared_ptr<PlanMemo> memo_;
};

using PreparedQueryPtr = std::shared_ptr<const PreparedQuery>;

/// Thread-safe LRU cache of PreparedQuery instances keyed by
/// whitespace-normalized SQL text. Entries live until LRU eviction; no
/// store mutation invalidates them.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 256) : capacity_(capacity) {}

  /// Returns the cached statement for `sql_text`, parsing and inserting on
  /// miss. Counts hits/misses both internally and, when `stats` is
  /// non-null, into the caller's ExecStats.
  util::Result<PreparedQueryPtr> GetOrPrepare(std::string_view sql_text,
                                              ExecStats* stats);

  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;

  /// Collapses whitespace runs so textual variants of one template share a
  /// cache entry.
  static std::string NormalizeSql(std::string_view sql_text);

 private:
  // Held only around map/LRU bookkeeping; parsing runs outside. Ranks below
  // the per-statement PlanMemo lock (GetOrPrepare never nests them, but the
  // memo is filled while execution logically "inside" a prepared statement).
  mutable util::Mutex mu_{util::LockRank::kPlanCache, "plan_cache"};
  size_t capacity_;
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  std::list<std::string> lru_ GUARDED_BY(mu_);  // front = most recently used
  struct Entry {
    std::list<std::string>::iterator lru_it;
    PreparedQueryPtr prepared;
  };
  std::unordered_map<std::string, Entry> entries_ GUARDED_BY(mu_);
};

class Executor {
 public:
  struct Options {
    /// Safety cap for recursive CTE evaluation.
    int max_recursion = 10000;
    /// Disable index selection (for ablation tests).
    bool enable_indexes = true;
    /// Batch-at-a-time execution: base-table pipelines flow through
    /// rel::ColumnBatch with vectorized predicate/projection/join/aggregate
    /// evaluation. Off forces the row-at-a-time operators everywhere (the
    /// differential oracle and ablation benchmarks). Results, EXPLAIN
    /// ANALYZE spans, and ExecStats counters are identical either way.
    bool vectorized = true;
    /// EXPLAIN ANALYZE mode: record per-operator rows + wall time into
    /// ExecStats::spans. Off by default — each span costs two clock reads.
    bool analyze = false;
    /// MVCC snapshot pin: when non-zero, base-table references resolve to
    /// the table contents as of this commit timestamp (rel::Table::ScanAt).
    /// Tables with no versions newer than read_ts use the live fast paths
    /// (indexes, batches) unchanged; 0 always reads live data.
    uint64_t read_ts = 0;
    /// Plan-IR verification (sql/verify.h): statically check every plan
    /// before executing it and fail with a structured diagnostic instead of
    /// running a malformed plan. On by default in Debug builds; prepared
    /// statements amortize the cost to two passes total (AST once, filled
    /// memo once) via PlanMemo::ClaimVerifyStage.
#ifdef NDEBUG
    bool verify_plans = false;
#else
    bool verify_plans = true;
#endif
  };

  explicit Executor(rel::Database* db) : db_(db) {}
  Executor(rel::Database* db, Options options) : db_(db), options_(options) {}

  /// Attaches a shared plan cache (not owned); Prepare() and ExecuteSql()
  /// then route through it.
  void set_plan_cache(PlanCache* cache) { plan_cache_ = cache; }

  /// Executes a full query (CTEs + final select).
  util::Result<ResultSet> Execute(const SqlQuery& query);

  /// Parses then executes SQL text. With a plan cache attached, repeat
  /// executions of the same text skip lexing/parsing/planning.
  util::Result<ResultSet> ExecuteSql(std::string_view sql_text);

  /// Compiles SQL text into a reusable statement (through the plan cache
  /// when one is attached).
  util::Result<PreparedQueryPtr> Prepare(std::string_view sql_text);

  /// Executes a prepared statement with the given bind values.
  util::Result<ResultSet> ExecutePrepared(const PreparedQuery& prepared,
                                          const ParamBindings& params);

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecStats(); }

  /// Toggles EXPLAIN ANALYZE span recording (see Options::analyze).
  void set_analyze(bool on) { options_.analyze = on; }

 private:
  class Impl;
  util::Result<ResultSet> ExecuteWithParams(const SqlQuery& query,
                                            const ParamBindings* params,
                                            PlanMemo* memo);

  rel::Database* db_;
  Options options_;
  ExecStats stats_;
  PlanCache* plan_cache_ = nullptr;
};

}  // namespace sql
}  // namespace sqlgraph

#endif  // SQLGRAPH_SQL_EXECUTOR_H_
