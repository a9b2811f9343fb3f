#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace blend::sql {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  kColumnRef,     // [alias.]name
  kIntLiteral,
  kDoubleLiteral,
  kStringLiteral,
  kStar,          // the '*' inside COUNT(*)
  kBinary,        // arithmetic / comparison / AND / OR
  kNot,
  kInList,        // expr [NOT] IN (literal, ...)
  kIsNull,        // expr IS [NOT] NULL
  kFuncCall,      // COUNT, SUM, ABS, MIN, MAX, AVG
};

enum class BinOp {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kAdd, kSub, kMul, kDiv,
};

/// Expression node of the parsed SQL. A single struct keeps the recursive
/// descent parser and the binder simple; fields are populated per kind.
struct Expr {
  ExprKind kind;

  // kColumnRef
  std::string table_alias;  // empty if unqualified
  std::string column;

  // literals
  int64_t int_val = 0;
  double dbl_val = 0;
  std::string str_val;

  // kBinary / kNot (child in lhs)
  BinOp op = BinOp::kEq;
  ExprPtr lhs;
  ExprPtr rhs;

  // kInList: lhs is the probed expression.
  bool negated = false;  // also reused by kIsNull for IS NOT NULL
  std::vector<std::string> in_strings;
  std::vector<int64_t> in_ints;
  std::vector<double> in_doubles;  // literals with a decimal point

  // kFuncCall
  std::string func;       // upper-cased
  bool distinct = false;  // COUNT(DISTINCT x)
  std::vector<ExprPtr> args;
};

struct SelectStmt;

/// FROM-clause item: the AllTables base relation or a one-level subquery.
struct TableRef {
  bool is_subquery = false;
  std::string base_name;                 // "AllTables" when !is_subquery
  std::unique_ptr<SelectStmt> subquery;  // when is_subquery
  std::string alias;                     // may be empty
};

struct SelectItem {
  ExprPtr expr;
  std::string alias;  // AS alias, may be empty
};

struct OrderItem {
  ExprPtr expr;
  bool desc = false;
};

/// EXPLAIN prefix mode of a parsed statement.
enum class ExplainMode {
  kNone,     // plain statement: execute as usual
  kPlan,     // EXPLAIN: render the plan, do not execute
  kAnalyze,  // EXPLAIN ANALYZE: execute and annotate the plan with actuals
};

/// A full parsed statement: an optional EXPLAIN [ANALYZE] prefix plus the
/// SELECT it introspects. ParseStatement returns this; the legacy Parse
/// entry point keeps returning the bare SelectStmt.
struct Statement {
  ExplainMode explain = ExplainMode::kNone;
  std::unique_ptr<SelectStmt> select;
};

/// A parsed SELECT. The dialect covers exactly what BLEND's seekers emit:
/// single-table scans, chains of INNER JOINs of subqueries (one per MC query
/// column), WHERE conjunctions with IN-lists, GROUP BY, aggregate select
/// lists, ORDER BY and LIMIT.
struct SelectStmt {
  bool select_star = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;      // first relation + one per join
  std::vector<ExprPtr> join_ons;   // join_ons[i] is the ON of from[i + 1]
  ExprPtr where;                   // may be null
  std::vector<ExprPtr> group_by;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;              // -1 = no limit
};

}  // namespace blend::sql
