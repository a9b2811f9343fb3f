#include "sql/expr_eval.h"

#include <algorithm>

#include "common/str_util.h"

namespace blend::sql {

const char* FieldName(Field f) {
  switch (f) {
    case Field::kCell: return "CellValue";
    case Field::kTable: return "TableId";
    case Field::kColumn: return "ColumnId";
    case Field::kRow: return "RowId";
    case Field::kSuperKey: return "SuperKey";
    case Field::kQuadrant: return "Quadrant";
  }
  return "?";
}

bool LookupField(const std::string& name, Field* out) {
  std::string l = ToLower(name);
  if (l == "cellvalue") { *out = Field::kCell; return true; }
  if (l == "tableid") { *out = Field::kTable; return true; }
  if (l == "columnid") { *out = Field::kColumn; return true; }
  if (l == "rowid") { *out = Field::kRow; return true; }
  if (l == "superkey") { *out = Field::kSuperKey; return true; }
  if (l == "quadrant") { *out = Field::kQuadrant; return true; }
  return false;
}

bool Binder::ContainsAggregate(const Expr& e) {
  if (e.kind == ExprKind::kFuncCall) {
    if (e.func == "COUNT" || e.func == "SUM" || e.func == "MIN" || e.func == "MAX" ||
        e.func == "AVG") {
      return true;
    }
  }
  if (e.lhs && ContainsAggregate(*e.lhs)) return true;
  if (e.rhs && ContainsAggregate(*e.rhs)) return true;
  for (const auto& a : e.args) {
    if (a && ContainsAggregate(*a)) return true;
  }
  return false;
}

Result<BoundExprPtr> Binder::BindColumnRef(const Expr& e) const {
  Field f;
  if (!LookupField(e.column, &f)) {
    return Status::PlanError("unknown column: " + e.column);
  }
  std::string alias = ToLower(e.table_alias);
  int found_side = -1;
  for (size_t s = 0; s < rels_.size(); ++s) {
    if (!alias.empty() && rels_[s].alias != alias) continue;
    auto it = rels_[s].cols.find(ToLower(e.column));
    if (it == rels_[s].cols.end()) continue;
    if (found_side >= 0) {
      return Status::PlanError("ambiguous column: " + e.column);
    }
    found_side = static_cast<int>(s);
    f = it->second;
  }
  if (found_side < 0 && rels_.size() == 1) {
    // Single-relation leniency: subquery predicates may qualify columns with
    // the inner FROM alias, which the outer scope does not track.
    auto it = rels_[0].cols.find(ToLower(e.column));
    if (it != rels_[0].cols.end()) {
      found_side = 0;
      f = it->second;
    }
  }
  if (found_side < 0) {
    return Status::PlanError("column not visible: " +
                             (e.table_alias.empty() ? e.column
                                                    : e.table_alias + "." + e.column));
  }
  auto b = std::make_unique<BoundExpr>();
  b->kind = BKind::kField;
  b->side = static_cast<uint8_t>(found_side);
  b->field = f;
  return BoundExprPtr(std::move(b));
}

Result<BoundExprPtr> Binder::BindRowExpr(const Expr& e) const {
  static const std::vector<BoundExprPtr> kNoKeys;
  return BindImpl(e, /*agg_context=*/false, kNoKeys, nullptr);
}

Result<BoundExprPtr> Binder::BindAggExpr(const Expr& e,
                                         const std::vector<BoundExprPtr>& keys,
                                         std::vector<AggSpec>* aggs) const {
  return BindImpl(e, /*agg_context=*/true, keys, aggs);
}

Result<BoundExprPtr> Binder::BindImpl(const Expr& e, bool agg_context,
                                      const std::vector<BoundExprPtr>& keys,
                                      std::vector<AggSpec>* aggs) const {
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      BLEND_ASSIGN_OR_RETURN(auto ref, BindColumnRef(e));
      if (!agg_context) return ref;
      // Must correspond to a group-by key.
      for (size_t i = 0; i < keys.size(); ++i) {
        if (keys[i]->kind == BKind::kField && keys[i]->side == ref->side &&
            keys[i]->field == ref->field) {
          auto b = std::make_unique<BoundExpr>();
          b->kind = BKind::kKeyRef;
          b->ref = static_cast<uint32_t>(i);
          return BoundExprPtr(std::move(b));
        }
      }
      return Status::PlanError(std::string("column ") + FieldName(ref->field) +
                               " is neither aggregated nor in GROUP BY");
    }
    case ExprKind::kIntLiteral: {
      auto b = std::make_unique<BoundExpr>();
      b->kind = BKind::kConst;
      b->constant = SqlValue::Int(e.int_val);
      return BoundExprPtr(std::move(b));
    }
    case ExprKind::kDoubleLiteral: {
      auto b = std::make_unique<BoundExpr>();
      b->kind = BKind::kConst;
      b->constant = SqlValue::Double(e.dbl_val);
      return BoundExprPtr(std::move(b));
    }
    case ExprKind::kStringLiteral: {
      // A bare string literal resolves to its dictionary id (comparisons with
      // CellValue become integer comparisons); absent values get a sentinel id
      // that matches nothing.
      CellId id = dict_->Find(NormalizeCell(e.str_val));
      auto b = std::make_unique<BoundExpr>();
      b->kind = BKind::kConst;
      b->constant = id == kInvalidCellId ? SqlValue::Int(-1)
                                         : SqlValue::Int(static_cast<int64_t>(id));
      return BoundExprPtr(std::move(b));
    }
    case ExprKind::kStar:
      return Status::PlanError("'*' outside COUNT(*)");
    case ExprKind::kNot: {
      BLEND_ASSIGN_OR_RETURN(auto inner, BindImpl(*e.lhs, agg_context, keys, aggs));
      auto b = std::make_unique<BoundExpr>();
      b->kind = BKind::kNot;
      b->lhs = std::move(inner);
      return BoundExprPtr(std::move(b));
    }
    case ExprKind::kIsNull: {
      BLEND_ASSIGN_OR_RETURN(auto inner, BindImpl(*e.lhs, agg_context, keys, aggs));
      auto b = std::make_unique<BoundExpr>();
      b->kind = BKind::kIsNull;
      b->negated = e.negated;
      b->lhs = std::move(inner);
      return BoundExprPtr(std::move(b));
    }
    case ExprKind::kInList: {
      BLEND_ASSIGN_OR_RETURN(auto probe, BindImpl(*e.lhs, agg_context, keys, aggs));
      auto b = std::make_unique<BoundExpr>();
      b->kind = BKind::kInSet;
      b->negated = e.negated;
      b->lhs = std::move(probe);
      auto set = std::make_shared<InList>();
      set->ints = e.in_ints;
      for (const auto& s : e.in_strings) {
        // As in a bare string literal, an absent value binds to -1.
        CellId id = dict_->Find(NormalizeCell(s));
        set->ints.push_back(id == kInvalidCellId ? -1 : static_cast<int64_t>(id));
      }
      set->doubles = e.in_doubles;
      auto sort_unique = [](auto* v) {
        std::sort(v->begin(), v->end());
        v->erase(std::unique(v->begin(), v->end()), v->end());
      };
      sort_unique(&set->ints);
      sort_unique(&set->doubles);
      b->set = std::move(set);
      return BoundExprPtr(std::move(b));
    }
    case ExprKind::kBinary: {
      BLEND_ASSIGN_OR_RETURN(auto l, BindImpl(*e.lhs, agg_context, keys, aggs));
      BLEND_ASSIGN_OR_RETURN(auto r, BindImpl(*e.rhs, agg_context, keys, aggs));
      auto b = std::make_unique<BoundExpr>();
      b->kind = BKind::kBinary;
      b->op = e.op;
      b->lhs = std::move(l);
      b->rhs = std::move(r);
      return BoundExprPtr(std::move(b));
    }
    case ExprKind::kFuncCall: {
      if (e.func == "ABS") {
        if (e.args.size() != 1) return Status::PlanError("ABS takes one argument");
        BLEND_ASSIGN_OR_RETURN(auto inner,
                               BindImpl(*e.args[0], agg_context, keys, aggs));
        auto b = std::make_unique<BoundExpr>();
        b->kind = BKind::kAbs;
        b->lhs = std::move(inner);
        return BoundExprPtr(std::move(b));
      }
      // Aggregate functions.
      AggSpec::Kind kind;
      if (e.func == "COUNT") {
        kind = (e.args.size() == 1 && e.args[0]->kind == ExprKind::kStar)
                   ? AggSpec::Kind::kCountStar
                   : AggSpec::Kind::kCount;
      } else if (e.func == "SUM") {
        kind = AggSpec::Kind::kSum;
      } else if (e.func == "MIN") {
        kind = AggSpec::Kind::kMin;
      } else if (e.func == "MAX") {
        kind = AggSpec::Kind::kMax;
      } else if (e.func == "AVG") {
        kind = AggSpec::Kind::kAvg;
      } else {
        return Status::PlanError("unknown function: " + e.func);
      }
      if (!agg_context || aggs == nullptr) {
        return Status::PlanError("aggregate " + e.func + " not allowed here");
      }
      AggSpec spec;
      spec.kind = kind;
      spec.distinct = e.distinct;
      if (kind != AggSpec::Kind::kCountStar) {
        if (e.args.size() != 1) {
          return Status::PlanError(e.func + " takes one argument");
        }
        // Aggregate arguments are row-level expressions.
        BLEND_ASSIGN_OR_RETURN(spec.arg, BindRowExpr(*e.args[0]));
      }
      aggs->push_back(std::move(spec));
      auto b = std::make_unique<BoundExpr>();
      b->kind = BKind::kAggRef;
      b->ref = static_cast<uint32_t>(aggs->size() - 1);
      return BoundExprPtr(std::move(b));
    }
  }
  return Status::PlanError("unsupported expression");
}

void BlockExpr::Compile(const BoundExpr& e, uint32_t reg) {
  if (e.lhs != nullptr) Compile(*e.lhs, reg);
  if (e.rhs != nullptr) Compile(*e.rhs, reg + 1);
  nodes_.push_back({&e, reg});
  num_regs_ = std::max(num_regs_, reg + (e.rhs != nullptr ? 2 : 1));
}

namespace {

/// Applies `fn(lane)`, a SqlValue per lane, to every lane of `out` (which
/// may be one of fn's operands: lane k is read before it is written).
template <typename Fn>
void SetLanes(ValueBlock* out, size_t n, const Fn& fn) {
  bool all_int = true;
  for (size_t k = 0; k < n; ++k) {
    const SqlValue v = fn(k);
    all_int = all_int && v.kind == SqlValue::Kind::kInt;
    out->Set(k, v);
  }
  out->all_int = all_int;
}

/// Sets lane k to the 0/1 int `fn(k)`.
template <typename Fn>
void SetBools(ValueBlock* out, size_t n, const Fn& fn) {
  for (size_t k = 0; k < n; ++k) out->i[k] = fn(k) ? 1 : 0;
  out->all_int = true;
}

/// Comparison or logical operator over two all-int blocks; false when `op`
/// is arithmetic.
bool IntPredicate(BinOp op, ValueBlock* l, const ValueBlock& r, size_t n) {
  const int64_t* a = l->i;
  const int64_t* b = r.i;
  switch (op) {
    case BinOp::kEq: SetBools(l, n, [&](size_t k) { return a[k] == b[k]; }); break;
    case BinOp::kNe: SetBools(l, n, [&](size_t k) { return a[k] != b[k]; }); break;
    case BinOp::kLt: SetBools(l, n, [&](size_t k) { return a[k] < b[k]; }); break;
    case BinOp::kLe: SetBools(l, n, [&](size_t k) { return a[k] <= b[k]; }); break;
    case BinOp::kGt: SetBools(l, n, [&](size_t k) { return a[k] > b[k]; }); break;
    case BinOp::kGe: SetBools(l, n, [&](size_t k) { return a[k] >= b[k]; }); break;
    case BinOp::kAnd:
      SetBools(l, n, [&](size_t k) { return (a[k] != 0) & (b[k] != 0); });
      break;
    case BinOp::kOr:
      SetBools(l, n, [&](size_t k) { return (a[k] != 0) | (b[k] != 0); });
      break;
    default: return false;
  }
  return true;
}

}  // namespace

void BlockExpr::EvalNode(const BoundExpr& e, ValueBlock* out, size_t n) {
  ValueBlock& v = *out;
  switch (e.kind) {
    case BKind::kConst:
      if (e.constant.kind == SqlValue::Kind::kInt) {
        std::fill(v.i, v.i + n, e.constant.i);
        v.all_int = true;
      } else {
        SetLanes(out, n, [&](size_t) { return e.constant; });
      }
      return;
    case BKind::kNot:
      if (v.all_int) {
        SetBools(out, n, [&](size_t k) { return v.i[k] == 0; });
      } else {
        SetLanes(out, n, [&](size_t k) { return ApplyNot(v.Get(k)); });
      }
      return;
    case BKind::kAbs:
      SetLanes(out, n, [&](size_t k) { return ApplyAbs(v.Get(k)); });
      return;
    case BKind::kIsNull: {
      const bool all_int = v.all_int;
      SetBools(out, n, [&](size_t k) {
        const bool null = !all_int && v.kind[k] == SqlValue::Kind::kNull;
        return null != e.negated;
      });
      return;
    }
    case BKind::kInSet: {
      const InList& set = *e.set;
      const bool neg = e.negated;
      if (v.all_int) {
        SetBools(out, n, [&](size_t k) { return set.ContainsInt(v.i[k]) != neg; });
      } else {
        SetBools(out, n, [&](size_t k) { return set.Contains(v.Get(k)) != neg; });
      }
      return;
    }
    case BKind::kBinary: {
      const ValueBlock& r = out[1];
      if (v.all_int && r.all_int) {
        if (IntPredicate(e.op, out, r, n)) return;
        int64_t res[kBlockRows];
        bool fits = e.op != BinOp::kDiv;
        for (size_t k = 0; fits && k < n; ++k) {
          fits = IntArith(e.op, v.i[k], r.i[k], &res[k]);
        }
        if (fits) {
          std::copy(res, res + n, v.i);
          return;
        }
      }
      SetLanes(out, n, [&](size_t k) { return ApplyBinary(e.op, v.Get(k), r.Get(k)); });
      return;
    }
    case BKind::kField:  // gathered by Eval
    case BKind::kAggRef:  // not row expressions
    case BKind::kKeyRef:
      SetLanes(out, n, [](size_t) { return SqlValue::Null(); });
      return;
  }
}

std::vector<BlockExpr> CompileBlockExprs(const std::vector<BoundExprPtr>& exprs) {
  std::vector<BlockExpr> out;
  out.reserve(exprs.size());
  for (const auto& e : exprs) out.emplace_back(*e);
  return out;
}

}  // namespace blend::sql
