// Tests for src/sql/verify.{h,cc}: PlanVerifyReport formatting, the check
// catalog (column resolution, type soundness, operator invariants, memo
// replay, pipe attribution), the zero-false-rejection contract on every
// plan shape the executor tests and differential harness exercise, the
// executor wiring (staged verification, ExecStats counters), and the
// SQLGRAPH_VERIFY_SELFTEST mutation plants.

#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/verify.h"

namespace sqlgraph {
namespace sql {
namespace {

using rel::ColumnType;
using rel::Database;
using rel::IndexKind;
using rel::Schema;
using rel::Value;

// ------------------------------------------------------------ reporting ----

TEST(PlanVerifyReportTest, IssueFormatsAsCheckContextOperatorMessage) {
  PlanVerifyIssue issue;
  issue.check = VerifyCheck::kColumnResolution;
  issue.context = "final";
  issue.operator_name = "project";
  issue.message = "cannot resolve column v.zzz";
  EXPECT_EQ(issue.ToString(),
            "[column-resolution] final/project: cannot resolve column v.zzz");
}

TEST(PlanVerifyReportTest, EmptyReportIsOkAndToStatusFailsWithPrefix) {
  PlanVerifyReport report;
  EXPECT_TRUE(report.ok());
  report.Add(VerifyCheck::kTypeSoundness, "cte_1", "filter", "boom");
  EXPECT_FALSE(report.ok());
  const util::Status status = report.ToStatus();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("plan verification failed"),
            std::string::npos);
  EXPECT_NE(status.ToString().find("[type-soundness] cte_1/filter: boom"),
            std::string::npos);
}

TEST(PlanVerifyReportTest, EveryCheckHasAName) {
  for (VerifyCheck check :
       {VerifyCheck::kColumnResolution, VerifyCheck::kTypeSoundness,
        VerifyCheck::kOperatorInvariant, VerifyCheck::kMemoReplay,
        VerifyCheck::kPipeAttribution}) {
    EXPECT_STRNE(VerifyCheckName(check), "unknown-check");
  }
}

// ----------------------------------------------------------- plan checks ----

// Same catalog as sql_test.cc's ExecutorTest: people(id, name, age,
// attr JSON) with hash/JSON indexes, edges(src, dst, label).
class VerifyPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema people;
    people.AddColumn("id", ColumnType::kInt64, false);
    people.AddColumn("name", ColumnType::kString);
    people.AddColumn("age", ColumnType::kInt64);
    people.AddColumn("attr", ColumnType::kJson);
    auto pt = db_.CreateTable("people", std::move(people));
    ASSERT_TRUE(pt.ok());
    ASSERT_TRUE((*pt)->CreateIndex("people_id", {"id"}, IndexKind::kHash,
                                   /*unique=*/true)
                    .ok());
    ASSERT_TRUE(
        (*pt)->CreateJsonIndex("people_city", "attr", "city", IndexKind::kHash)
            .ok());
    Schema edges;
    edges.AddColumn("src", ColumnType::kInt64, false);
    edges.AddColumn("dst", ColumnType::kInt64, false);
    edges.AddColumn("label", ColumnType::kString);
    auto et = db_.CreateTable("edges", std::move(edges));
    ASSERT_TRUE(et.ok());
    ASSERT_TRUE(
        (*et)->CreateIndex("edges_src", {"src"}, IndexKind::kHash).ok());
  }

  PlanVerifyReport Verify(const std::string& text) {
    auto q = ParseQuery(text);
    EXPECT_TRUE(q.ok()) << text << " -> " << q.status().ToString();
    PlanVerifyReport report;
    if (q.ok()) VerifyPlan(q.value(), db_, &report);
    return report;
  }

  void ExpectClean(const std::string& text) {
    const PlanVerifyReport report = Verify(text);
    EXPECT_TRUE(report.ok()) << text << "\n" << report.ToString();
  }

  void ExpectIssue(const std::string& text, VerifyCheck check,
                   const std::string& substring) {
    const PlanVerifyReport report = Verify(text);
    ASSERT_FALSE(report.ok()) << text << ": expected a finding";
    bool found = false;
    for (const PlanVerifyIssue& issue : report.issues) {
      if (issue.check == check &&
          issue.ToString().find(substring) != std::string::npos) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << text << ": no [" << VerifyCheckName(check)
                       << "] issue containing '" << substring << "' in:\n"
                       << report.ToString();
  }

  Database db_;
};

TEST_F(VerifyPlanTest, AcceptsEveryHarnessPlanShape) {
  // One query per plan shape the executor tests, Table-8 translations and
  // the differential harness generate. All must verify with zero findings
  // (the empirical zero-false-rejection bar; the full test suite enforces
  // the same in Debug builds, where verify_plans defaults on).
  const char* shapes[] = {
      "SELECT 1",
      "SELECT v.id, v.name FROM people v WHERE v.age > 27",
      "SELECT DISTINCT v.name FROM people v ORDER BY v.name LIMIT 2",
      "SELECT * FROM people",
      "SELECT v.* FROM people v WHERE NOT (v.id = 1 OR v.age = 2)",
      // Equi-joins (index NL on edges_src / people_id) and cross products.
      "SELECT p.name FROM edges e, people p WHERE e.dst = p.id AND "
      "e.src = 1",
      "SELECT a.id, b.id FROM people a, people b WHERE a.id < b.id",
      // Unnest + the OSA/ISA left-outer COALESCE template families.
      "SELECT t.val FROM people p, TABLE(VALUES (p.id), (p.age)) AS t(val) "
      "WHERE t.val IS NOT NULL",
      "SELECT COALESCE(s.dst, p.id) AS val FROM people p LEFT OUTER JOIN "
      "edges s ON p.id = s.src",
      // JSON attribute access, casts, LIKE, BETWEEN, IN.
      "SELECT JSON_VAL(p.attr, 'city') AS c FROM people p WHERE "
      "JSON_VAL(p.attr, 'city') = 'beijing'",
      "SELECT CAST(JSON_VAL(p.attr, 'score') AS BIGINT) AS s FROM people p",
      "SELECT p.id FROM people p WHERE p.name LIKE '%ark%'",
      "SELECT p.id FROM people p WHERE p.age BETWEEN 27 AND 32",
      "SELECT p.id FROM people p WHERE p.id IN (1, 2, 3)",
      "SELECT p.id FROM people p WHERE p.id IN (SELECT e.src FROM edges e)",
      "SELECT p.id FROM people p WHERE p.id NOT IN "
      "(SELECT e.dst FROM edges e)",
      // Aggregation, grouping, HAVING, aggregate-output ORDER BY.
      "SELECT COUNT(*) FROM people",
      "SELECT COUNT(DISTINCT e.label) FROM edges e",
      "SELECT e.label, COUNT(*) AS n FROM edges e GROUP BY e.label "
      "ORDER BY n DESC",
      "SELECT e.label FROM edges e GROUP BY e.label HAVING COUNT(*) > 1",
      "SELECT SUM(p.age) AS total, MIN(p.name) AS m FROM people p",
      // Set operations and CTE chains (the translation output shape).
      "SELECT p.id FROM people p UNION ALL SELECT e.src FROM edges e",
      "SELECT p.id FROM people p INTERSECT SELECT e.src FROM edges e",
      // NOTE: ORDER BY after a set operation attaches to the right-hand
      // select (the parser's right-deep chain), so it binds in THAT
      // select's scope — `... EXCEPT SELECT e.dst FROM edges e ORDER BY
      // dst` sorts the rhs, and an output-name ORDER BY there is a
      // resolution error at runtime and statically.
      "SELECT p.id FROM people p EXCEPT SELECT e.dst FROM edges e "
      "ORDER BY dst",
      "WITH TEMP_0 AS (SELECT p.id AS val FROM people p), "
      "TEMP_1 AS (SELECT e.dst AS val FROM TEMP_0 t, edges e "
      "WHERE e.src = t.val) SELECT DISTINCT val FROM TEMP_1",
      // Recursive CTE (the loop(n){true} fallback).
      "WITH RECURSIVE r AS (SELECT e.dst AS val FROM edges e WHERE "
      "e.src = 1 UNION ALL SELECT e2.dst FROM r, edges e2 WHERE "
      "e2.src = r.val) SELECT DISTINCT val FROM r",
      // Scalar functions and parameters.
      "SELECT LOWER(p.name) AS l, UPPER(p.name) AS u, LENGTH(p.name) AS n "
      "FROM people p",
      "SELECT ABS(p.age - 30) AS d FROM people p WHERE p.id = :p0",
  };
  for (const char* text : shapes) ExpectClean(text);
}

TEST_F(VerifyPlanTest, RejectsDanglingColumn) {
  ExpectIssue("SELECT v.zzz FROM people v", VerifyCheck::kColumnResolution,
              "cannot resolve column v.zzz");
  // In WHERE, a dangling column surfaces as the executor's residual-
  // conjunct error: no join stage can ever consume the predicate.
  ExpectIssue("SELECT p.id FROM people p WHERE p.nope = 1",
              VerifyCheck::kColumnResolution,
              "unresolvable predicate: p.nope = 1");
  ExpectIssue("SELECT p.id FROM people p ORDER BY wat",
              VerifyCheck::kColumnResolution, "cannot resolve column wat");
}

TEST_F(VerifyPlanTest, RejectsUnknownTable) {
  ExpectIssue("SELECT x FROM nonesuch t", VerifyCheck::kColumnResolution,
              "unknown table nonesuch");
}

TEST_F(VerifyPlanTest, RejectsUnresolvablePredicate) {
  // w is never bound by any FROM entry, so no join stage can consume the
  // conjunct — the executor would fail at runtime on every row.
  ExpectIssue("SELECT p.id FROM people p WHERE w.id = 1",
              VerifyCheck::kColumnResolution, "unresolvable predicate");
}

TEST_F(VerifyPlanTest, RejectsTypeConfusedJoinKey) {
  ExpectIssue(
      "SELECT a.x FROM TABLE(VALUES (1)) AS a(x), TABLE(VALUES ('y')) AS "
      "b(y) WHERE a.x = b.y",
      VerifyCheck::kTypeSoundness, "equality can never match");
}

TEST_F(VerifyPlanTest, RejectsArithmeticOnNonNumbers) {
  ExpectIssue("SELECT 'a' + 1", VerifyCheck::kTypeSoundness,
              "arithmetic on non-numeric values");
}

TEST_F(VerifyPlanTest, RejectsNonStringLikePattern) {
  ExpectIssue("SELECT p.id FROM people p WHERE p.name LIKE 5",
              VerifyCheck::kTypeSoundness, "LIKE pattern not string");
}

TEST_F(VerifyPlanTest, RejectsNonStringJsonValKey) {
  ExpectIssue("SELECT JSON_VAL(p.attr, 3) FROM people p",
              VerifyCheck::kTypeSoundness, "JSON_VAL key not string");
}

TEST_F(VerifyPlanTest, RejectsUnknownFunctionAndBadArity) {
  ExpectIssue("SELECT FROBNICATE(p.id) FROM people p",
              VerifyCheck::kTypeSoundness, "unknown function FROBNICATE");
  ExpectIssue("SELECT ABS(1, 2)", VerifyCheck::kTypeSoundness, "expects");
}

TEST_F(VerifyPlanTest, RejectsSetOpArityMismatch) {
  ExpectIssue("SELECT p.id, p.name FROM people p UNION ALL "
              "SELECT e.src FROM edges e",
              VerifyCheck::kOperatorInvariant, "set operation arity mismatch");
}

TEST_F(VerifyPlanTest, RejectsValuesRowArityMismatch) {
  ExpectIssue("SELECT t.a FROM TABLE(VALUES (1, 2)) AS t(a)",
              VerifyCheck::kOperatorInvariant, "VALUES row arity mismatch");
}

TEST_F(VerifyPlanTest, RejectsStarQualifierMatchingNothing) {
  // The executor silently expands q.* to zero columns — a wrong-result
  // hazard the verifier turns into a diagnostic.
  ExpectIssue("SELECT q.* FROM people v", VerifyCheck::kColumnResolution,
              "star qualifier");
}

TEST_F(VerifyPlanTest, RejectsUngroupedSelectItem) {
  ExpectIssue("SELECT p.name, COUNT(*) FROM people p",
              VerifyCheck::kOperatorInvariant,
              "neither aggregate nor GROUP BY");
}

TEST_F(VerifyPlanTest, RejectsBadAggregateArity) {
  ExpectIssue("SELECT SUM(p.age, p.id) FROM people p",
              VerifyCheck::kOperatorInvariant, "aggregate expects one");
  // Same defect inside HAVING, where the executor's rewrite would
  // dereference a null plan argument at runtime.
  ExpectIssue("SELECT e.label FROM edges e GROUP BY e.label "
              "HAVING SUM(e.src, e.dst) > 1",
              VerifyCheck::kOperatorInvariant, "aggregate expects one");
}

TEST_F(VerifyPlanTest, RejectsInSubqueryInHaving) {
  // The HAVING rewrite clones the expression tree; the clone loses the
  // node-identity key the IN materialization map is built on, so this
  // always fails at runtime — statically rejected instead.
  ExpectIssue("SELECT e.label FROM edges e GROUP BY e.label HAVING "
              "COUNT(*) IN (SELECT p.id FROM people p)",
              VerifyCheck::kOperatorInvariant, "IN subquery in HAVING");
}

TEST_F(VerifyPlanTest, RejectsWideInSubquery) {
  ExpectIssue("SELECT p.id FROM people p WHERE p.id IN "
              "(SELECT e.src, e.dst FROM edges e)",
              VerifyCheck::kOperatorInvariant,
              "IN subquery must return one column");
}

TEST_F(VerifyPlanTest, RejectsRecursiveCteStepArityMismatch) {
  // The executor appends step rows to the working table without an arity
  // check — a mismatch silently corrupts slot indexing.
  ExpectIssue("WITH RECURSIVE r AS (SELECT 1 AS x UNION ALL "
              "SELECT r.x, 2 FROM r) SELECT x FROM r",
              VerifyCheck::kOperatorInvariant, "step arity");
}

// ------------------------------------------------------ pipe attribution ----

class VerifyAttributionTest : public ::testing::Test {
 protected:
  SqlQuery Translation() {
    auto q = ParseQuery(
        "WITH TEMP_0 AS (SELECT 1 AS val), TEMP_1 AS "
        "(SELECT val FROM TEMP_0) SELECT val FROM TEMP_1");
    EXPECT_TRUE(q.ok());
    return std::move(q).value();
  }
  using Pipes = std::vector<std::pair<std::string, std::vector<std::string>>>;
};

TEST_F(VerifyAttributionTest, CompleteAttributionIsClean) {
  PlanVerifyReport report;
  const SqlQuery q = Translation();
  VerifyCteAttribution(q, {{"g.V", {"TEMP_0"}}, {"out()", {"TEMP_1"}}},
                       &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(VerifyAttributionTest, UnattributedCteIsReported) {
  PlanVerifyReport report;
  const SqlQuery q = Translation();
  VerifyCteAttribution(q, {{"g.V", {"TEMP_0"}}}, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.issues[0].check, VerifyCheck::kPipeAttribution);
  EXPECT_NE(report.ToString().find("TEMP_1"), std::string::npos);
}

TEST_F(VerifyAttributionTest, DoublyAttributedAndPhantomCtesAreReported) {
  PlanVerifyReport report;
  const SqlQuery q = Translation();
  VerifyCteAttribution(
      q, {{"g.V", {"TEMP_0", "TEMP_1"}}, {"out()", {"TEMP_1", "TEMP_9"}}},
      &report);
  ASSERT_FALSE(report.ok());
  const std::string all = report.ToString();
  EXPECT_NE(all.find("TEMP_9"), std::string::npos) << all;
  EXPECT_NE(all.find("attributed to 2"), std::string::npos) << all;
}

// -------------------------------------------------------- executor wiring ----

class VerifyExecutorTest : public VerifyPlanTest {
 protected:
  Executor::Options VerifyOn() {
    Executor::Options options;
    options.verify_plans = true;
    return options;
  }
};

TEST_F(VerifyExecutorTest, MalformedPlanIsRejectedNotExecuted) {
  Executor exec(&db_, VerifyOn());
  auto r = exec.ExecuteSql("SELECT v.zzz FROM people v");
  ASSERT_FALSE(r.ok());
  const std::string msg = r.status().ToString();
  EXPECT_NE(msg.find("plan verification failed"), std::string::npos) << msg;
  EXPECT_NE(msg.find("[column-resolution]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("project"), std::string::npos) << msg;
  EXPECT_EQ(exec.stats().plans_verified, 1u);
  EXPECT_EQ(exec.stats().plan_verify_rejections, 1u);
}

TEST_F(VerifyExecutorTest, PreparedStatementVerifiesExactlyTwice) {
  Executor exec(&db_, VerifyOn());
  auto prepared = exec.Prepare("SELECT p.name FROM people p WHERE p.id = :p0");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ParamBindings params;
  params.positional.push_back(Value(int64_t{1}));
  params.named["p0"] = Value(int64_t{1});
  for (int i = 0; i < 4; ++i) {
    auto r = exec.ExecutePrepared(**prepared, params);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // Stage 0 verifies the AST, stage 1 the filled memo; replays 3 and 4
  // skip verification entirely (the amortization contract).
  EXPECT_EQ(exec.stats().plans_verified, 2u);
  EXPECT_EQ(exec.stats().plan_verify_rejections, 0u);
}

TEST_F(VerifyExecutorTest, DisabledVerificationNeverRuns) {
  Executor::Options options;
  options.verify_plans = false;
  Executor exec(&db_, options);
  ASSERT_TRUE(exec.ExecuteSql("SELECT p.id FROM people p").ok());
  // A malformed plan sails through to the runtime error path untouched.
  EXPECT_FALSE(exec.ExecuteSql("SELECT v.zzz FROM people v").ok());
  EXPECT_EQ(exec.stats().plans_verified, 0u);
}

// --------------------------------------------------- mutation self-tests ----

class VerifySelfTestTest : public ::testing::Test {
 protected:
  // The mode is process-global; always restore kNone so unrelated tests
  // (which run with verify_plans on in Debug builds) stay unaffected.
  ~VerifySelfTestTest() override {
    SetVerifySelfTestModeForTest(VerifySelfTest::kNone);
  }
};

TEST_F(VerifySelfTestTest, DanglingColumnPlantIsRejected) {
  SetVerifySelfTestModeForTest(VerifySelfTest::kDanglingColumn);
  PlanVerifyReport report;
  AddVerifySelfTestPlants(&report);
  ASSERT_FALSE(report.ok());
  const std::string all = report.ToString();
  EXPECT_NE(all.find("[column-resolution]"), std::string::npos) << all;
  EXPECT_NE(all.find("project"), std::string::npos) << all;
  EXPECT_NE(all.find("a.zzz"), std::string::npos) << all;
}

TEST_F(VerifySelfTestTest, TypeConfusedJoinKeyPlantIsRejected) {
  SetVerifySelfTestModeForTest(VerifySelfTest::kTypeConfusedJoinKey);
  PlanVerifyReport report;
  AddVerifySelfTestPlants(&report);
  ASSERT_FALSE(report.ok());
  const std::string all = report.ToString();
  EXPECT_NE(all.find("[type-soundness]"), std::string::npos) << all;
  EXPECT_NE(all.find("equality can never match"), std::string::npos) << all;
}

TEST_F(VerifySelfTestTest, PlantFailsARealExecution) {
  // End-to-end: with a plant armed, even a perfectly well-formed query is
  // rejected — this is what ci/check.sh's mutation stage relies on.
  SetVerifySelfTestModeForTest(VerifySelfTest::kDanglingColumn);
  Database db;
  Executor::Options options;
  options.verify_plans = true;
  Executor exec(&db, options);
  auto r = exec.ExecuteSql("SELECT 1");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("plan verification failed"),
            std::string::npos);
}

TEST_F(VerifySelfTestTest, NoPlantMeansNoIssues) {
  SetVerifySelfTestModeForTest(VerifySelfTest::kNone);
  PlanVerifyReport report;
  AddVerifySelfTestPlants(&report);
  EXPECT_TRUE(report.ok());
}

}  // namespace
}  // namespace sql
}  // namespace sqlgraph
