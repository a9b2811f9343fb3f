#pragma once

#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/expr_eval.h"

namespace blend::sql {

/// One analyzed FROM item: either the AllTables base relation or a one-level
/// subquery over it. `scan_pred` is the predicate evaluated during the scan
/// (the subquery's WHERE, or the outer WHERE when the query is a single base
/// table and the predicate could be pushed down entirely).
struct AnalyzedRel {
  const Expr* scan_pred = nullptr;  // may be null
  Binder::RelColumns visible;      // exposed columns
};

/// Result of semantic analysis of a SelectStmt against the AllTables schema.
struct AnalyzedQuery {
  const SelectStmt* stmt = nullptr;
  std::vector<AnalyzedRel> rels;           // 1 .. kMaxRels
  const Expr* residual_where = nullptr;    // outer WHERE when not pushed into scan
  std::vector<const Expr*> join_ons;       // join_ons[i] joins rels[i + 1]
};

/// Validates the statement shape (base table name, subquery restrictions) and
/// computes visible column sets and predicate placement.
Result<AnalyzedQuery> Analyze(const SelectStmt& stmt);

/// Every field of AllTables, visible under `alias`.
Binder::RelColumns AllFieldsVisible(const std::string& alias);

/// Appends the AND-conjuncts of `e` (or `e` itself) to *out.
void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out);

/// Classified scan predicate of one relation: the conjuncts the executor can
/// serve through an index access path, plus the residual row filters. At most
/// one conjunct is claimed per access path; everything else lands in
/// `residual` and is evaluated per record.
struct ScanSpec {
  const Expr* cell_in = nullptr;   // CellValue IN ('a',...) -> hash index
  const Expr* table_in = nullptr;  // TableId IN (1,...) -> clustered index
  int64_t row_lt = -1;             // RowId < N bound; -1 = none
  bool need_quadrant = false;      // Quadrant IS NOT NULL -> partial index
  std::vector<const Expr*> residual;
};

/// Splits `scan_pred` (may be null) into the access-path conjuncts and the
/// residual filters. Pure classification: choosing which claimed index to
/// walk is the executor's job.
ScanSpec ClassifyScan(const Expr* scan_pred);

}  // namespace blend::sql
