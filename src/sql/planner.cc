#include "sql/planner.h"

#include "common/str_util.h"

namespace blend::sql {

void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->op == BinOp::kAnd) {
    SplitConjuncts(e->lhs.get(), out);
    SplitConjuncts(e->rhs.get(), out);
    return;
  }
  out->push_back(e);
}

Binder::RelColumns AllFieldsVisible(const std::string& alias) {
  Binder::RelColumns rc;
  rc.alias = ToLower(alias);
  for (int i = 0; i < kNumFields; ++i) {
    Field f = static_cast<Field>(i);
    rc.cols.emplace(ToLower(FieldName(f)), f);
  }
  return rc;
}

namespace {

/// True when the conjunct is `<Field> IN (...)` on the given field
/// (unqualified or any qualifier; scans see a single relation) whose list
/// holds only strings (`want_strings`) or only numbers. A mixed list stays
/// a residual filter, which compares each item as `=` would.
bool IsFieldInList(const Expr& e, Field field, bool want_strings) {
  if (e.kind != ExprKind::kInList || e.negated) return false;
  if (e.lhs == nullptr || e.lhs->kind != ExprKind::kColumnRef) return false;
  Field f;
  if (!LookupField(e.lhs->column, &f) || f != field) return false;
  const bool numbers = !e.in_ints.empty() || !e.in_doubles.empty();
  return want_strings ? !numbers : e.in_strings.empty();
}

/// Detects `RowId < N` (returns N) for the tight-loop scan fast path.
bool IsRowIdLess(const Expr& e, int64_t* bound) {
  if (e.kind != ExprKind::kBinary || e.op != BinOp::kLt) return false;
  if (e.lhs == nullptr || e.lhs->kind != ExprKind::kColumnRef) return false;
  Field f;
  if (!LookupField(e.lhs->column, &f) || f != Field::kRow) return false;
  if (e.rhs == nullptr || e.rhs->kind != ExprKind::kIntLiteral) return false;
  *bound = e.rhs->int_val;
  return true;
}

/// Detects `Quadrant IS NOT NULL`.
bool IsQuadrantNotNull(const Expr& e) {
  if (e.kind != ExprKind::kIsNull || !e.negated) return false;
  if (e.lhs == nullptr || e.lhs->kind != ExprKind::kColumnRef) return false;
  Field f;
  return LookupField(e.lhs->column, &f) && f == Field::kQuadrant;
}

Status CheckBaseTable(const TableRef& ref) {
  if (ToLower(ref.base_name) != "alltables") {
    return Status::PlanError("unknown table: " + ref.base_name +
                             " (only AllTables exists)");
  }
  return Status::OK();
}

/// Analyzes one FROM item into an AnalyzedRel.
Result<AnalyzedRel> AnalyzeRel(const TableRef& ref) {
  AnalyzedRel rel;
  if (!ref.is_subquery) {
    BLEND_RETURN_NOT_OK(CheckBaseTable(ref));
    rel.visible = AllFieldsVisible(ref.alias);
    return rel;
  }

  const SelectStmt& sub = *ref.subquery;
  if (sub.from.size() != 1 || sub.from[0].is_subquery) {
    return Status::PlanError("subqueries must select from AllTables directly");
  }
  BLEND_RETURN_NOT_OK(CheckBaseTable(sub.from[0]));
  if (!sub.group_by.empty() || !sub.order_by.empty() || sub.limit >= 0) {
    return Status::PlanError("GROUP BY / ORDER BY / LIMIT not supported in subqueries");
  }
  rel.scan_pred = sub.where.get();

  Binder::RelColumns rc;
  rc.alias = ToLower(ref.alias);
  if (sub.select_star) {
    rc = AllFieldsVisible(ref.alias);
  } else {
    for (const auto& item : sub.items) {
      if (item.expr->kind != ExprKind::kColumnRef) {
        return Status::PlanError("subquery select list must contain column refs");
      }
      Field f;
      if (!LookupField(item.expr->column, &f)) {
        return Status::PlanError("unknown column in subquery: " + item.expr->column);
      }
      std::string exposed =
          item.alias.empty() ? ToLower(item.expr->column) : ToLower(item.alias);
      rc.cols.emplace(std::move(exposed), f);
    }
  }
  rel.visible = std::move(rc);
  return rel;
}

}  // namespace

Result<AnalyzedQuery> Analyze(const SelectStmt& stmt) {
  AnalyzedQuery q;
  q.stmt = &stmt;
  if (stmt.from.empty() || stmt.from.size() > static_cast<size_t>(kMaxRels)) {
    return Status::PlanError("FROM must reference 1.." + std::to_string(kMaxRels) +
                             " relations");
  }
  if (stmt.join_ons.size() + 1 != stmt.from.size()) {
    return Status::PlanError("every join requires an ON clause");
  }

  for (const auto& ref : stmt.from) {
    BLEND_ASSIGN_OR_RETURN(auto rel, AnalyzeRel(ref));
    q.rels.push_back(std::move(rel));
  }

  if (stmt.from.size() == 1) {
    if (!stmt.from[0].is_subquery) {
      // Entire outer WHERE is evaluated during the scan.
      q.rels[0].scan_pred = stmt.where.get();
      q.residual_where = nullptr;
    } else {
      q.residual_where = stmt.where.get();
    }
  } else {
    for (const auto& on : stmt.join_ons) q.join_ons.push_back(on.get());
    q.residual_where = stmt.where.get();
  }
  return q;
}

ScanSpec ClassifyScan(const Expr* scan_pred) {
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(scan_pred, &conjuncts);
  ScanSpec spec;
  for (const Expr* c : conjuncts) {
    if (spec.cell_in == nullptr &&
        IsFieldInList(*c, Field::kCell, /*want_strings=*/true)) {
      spec.cell_in = c;
      continue;
    }
    if (spec.table_in == nullptr &&
        IsFieldInList(*c, Field::kTable, /*want_strings=*/false)) {
      spec.table_in = c;
      continue;
    }
    int64_t bound;
    if (spec.row_lt < 0 && IsRowIdLess(*c, &bound)) {
      spec.row_lt = bound;
      continue;
    }
    if (!spec.need_quadrant && IsQuadrantNotNull(*c)) {
      spec.need_quadrant = true;
      continue;
    }
    spec.residual.push_back(c);
  }
  return spec;
}

}  // namespace blend::sql
