// Plan-IR verifier: an LLVM-verifier-style static analysis pass over the
// logical plan tree (the CTE chain + final SELECT that IS this engine's
// query IR) and over the PlanMemo a prepared statement is about to replay.
// It runs after planning and before execution — on by default in Debug
// builds, behind Executor::Options::verify_plans / StoreConfig::verify_plans
// otherwise — and returns a structured PlanVerifyReport instead of letting a
// malformed plan execute.
//
// Check catalog (one VerifyCheck per class):
//
//   kColumnResolution   every column reference resolves in the scope its
//                       operator evaluates under (FROM-chain env, set-op
//                       output env, HAVING's aggregate-output env, ...);
//                       every table name resolves to a CTE or base table.
//   kTypeSoundness      expressions cannot hit EvalExpr's type errors on any
//                       row: arithmetic whose operand is statically a
//                       string/bool/json, LIKE with a non-string pattern,
//                       negation of a non-number, JSON_VAL with a non-string
//                       key, wrong scalar-function arity, unknown functions,
//                       aggregates in scalar context, bare `*` outside
//                       COUNT(*); plus equi-join keys whose two sides have
//                       statically known, different types (a join that can
//                       only ever produce an empty — i.e. silently wrong —
//                       result).
//   kOperatorInvariant  aggregate select items are aggregates or GROUP BY
//                       expressions, no `*` under aggregation, set-op arity
//                       agreement, recursive CTEs shaped <base> UNION [ALL]
//                       <step>, CTE column-alias arity, VALUES row arity,
//                       JSON_EDGES column-count bounds, IN subqueries
//                       returning one column.
//   kMemoReplay         a PlanMemo entry replays against the database it was
//                       recorded on: memoized indexes exist with matching
//                       key arity, selection bitmaps match the conjunct
//                       count they were recorded for.
//   kPipeAttribution    every CTE of a Gremlin translation maps back to
//                       exactly one source pipe (gremlin/runtime.cc feeds
//                       the attribution in; this layer never sees pipes).
//
// Soundness contract: column types are dynamic in this engine, so the type
// checker only reports errors that are certain from literals and operator
// result types — a column reference types as Unknown and is never flagged.
// A reported issue therefore means the plan either errors at runtime as soon
// as the offending operator evaluates a row, or violates a planner
// invariant that silently corrupts results (type-confused join keys, stale
// memos). Empirically the verifier accepts every plan the Gremlin
// translator, the differential harness, and the fuzz corpora generate (see
// tests/verify_test.cc).

#ifndef SQLGRAPH_SQL_VERIFY_H_
#define SQLGRAPH_SQL_VERIFY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rel/database.h"
#include "sql/ast.h"
#include "util/status.h"

namespace sqlgraph {
namespace sql {

class PlanMemo;

enum class VerifyCheck {
  kColumnResolution,
  kTypeSoundness,
  kOperatorInvariant,
  kMemoReplay,
  kPipeAttribution,
};

/// Stable lint-style name, e.g. "column-resolution".
const char* VerifyCheckName(VerifyCheck check);

/// One defect. `context` is the CTE name or "final" (mirroring ExecStats
/// trace/span contexts); `operator_name` names the faulty operator the way
/// EXPLAIN ANALYZE spans do ("project", "aggregate", "join e2", ...).
struct PlanVerifyIssue {
  VerifyCheck check = VerifyCheck::kColumnResolution;
  std::string context;
  std::string operator_name;
  std::string message;

  /// "[column-resolution] final/project: cannot resolve column v.zzz"
  std::string ToString() const;
};

struct PlanVerifyReport {
  std::vector<PlanVerifyIssue> issues;

  bool ok() const { return issues.empty(); }
  void Add(VerifyCheck check, std::string context, std::string operator_name,
           std::string message);
  /// All issues, one per line.
  std::string ToString() const;
  /// OK when clean; otherwise InvalidArgument carrying every issue line,
  /// prefixed "plan verification failed".
  util::Status ToStatus() const;
};

/// Verifies the logical plan tree against `db`: column resolution, type
/// soundness, operator invariants. Appends to `*report`.
void VerifyPlan(const SqlQuery& query, const rel::Database& db,
                PlanVerifyReport* report);

/// Convenience: fresh report (includes the self-test plants, see below).
PlanVerifyReport VerifyPlan(const SqlQuery& query, const rel::Database& db);

/// Verifies every access/join/outer plan `memo` recorded for `query`'s
/// table refs against `db` (kMemoReplay). Run after the memo has filled —
/// the executor schedules this on a prepared statement's second execution
/// (PlanMemo::ClaimVerifyStage).
void VerifyMemo(const SqlQuery& query, const rel::Database& db,
                const PlanMemo& memo, PlanVerifyReport* report);

/// Gremlin pipe-attribution completeness: every CTE of `query` appears in
/// exactly one pipe's CTE list, and every attributed CTE exists. `pipes` is
/// (pipe name, CTE names) — the gremlin layer flattens its PipeAttribution
/// into this shape so the sql layer stays below gremlin in the module DAG.
void VerifyCteAttribution(
    const SqlQuery& query,
    const std::vector<std::pair<std::string, std::vector<std::string>>>& pipes,
    PlanVerifyReport* report);

// ---------------------------------------------------------------------------
// Mutation self-tests (the PR-9 pattern): SQLGRAPH_VERIFY_SELFTEST plants a
// known defect through the real checking machinery and CI asserts the
// verifier rejects it with a diagnostic naming the operator. Modes:
//
//   SQLGRAPH_VERIFY_SELFTEST=dangling-column   a projection referencing a
//                                              column no input produces
//   SQLGRAPH_VERIFY_SELFTEST=join-key-type     an equi-join key comparing
//                                              an int column with a string
//
// The plants are synthetic plan fragments checked by the same walkers as
// real queries, so a silently weakened checker fails CI.

enum class VerifySelfTest {
  kNone = 0,
  kDanglingColumn,
  kTypeConfusedJoinKey,
};

/// Lazily parsed from SQLGRAPH_VERIFY_SELFTEST (unset/unknown → kNone).
VerifySelfTest VerifySelfTestMode();

/// Test override (bypasses the environment).
void SetVerifySelfTestModeForTest(VerifySelfTest mode);

/// Runs the active self-test plant through the real checkers, appending its
/// diagnostics to `*report`. No-op in mode kNone. Called by the executor
/// whenever it verifies a plan; callable directly from tests.
void AddVerifySelfTestPlants(PlanVerifyReport* report);

}  // namespace sql
}  // namespace sqlgraph

#endif  // SQLGRAPH_SQL_VERIFY_H_
