#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hashing.h"
#include "common/status.h"
#include "index/all_tables.h"
#include "index/codec.h"
#include "sql/ast.h"
#include "storage/dictionary.h"

namespace blend::sql {

/// Runtime value: NULL, 64-bit integer, or double. CellValue evaluates to its
/// dictionary id (string literals and IN-lists are resolved to ids at bind
/// time, so string comparisons are integer comparisons at runtime).
struct SqlValue {
  enum class Kind : uint8_t { kNull, kInt, kDouble };
  Kind kind = Kind::kNull;
  int64_t i = 0;
  double d = 0;

  static SqlValue Null() { return SqlValue{}; }
  static SqlValue Int(int64_t v) { return SqlValue{Kind::kInt, v, 0}; }
  static SqlValue Double(double v) { return SqlValue{Kind::kDouble, 0, v}; }
  static SqlValue Bool(bool b) { return Int(b ? 1 : 0); }

  bool is_null() const { return kind == Kind::kNull; }
  double AsDouble() const { return kind == Kind::kInt ? static_cast<double>(i) : d; }
  int64_t AsInt() const { return kind == Kind::kInt ? i : static_cast<int64_t>(d); }
  bool IsTruthy() const { return !is_null() && AsDouble() != 0.0; }

  uint64_t Hash() const {
    switch (kind) {
      case Kind::kNull: return 0x9E3779B97f4A7C15ULL;
      case Kind::kInt: return Mix64(static_cast<uint64_t>(i));
      case Kind::kDouble: {
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        return Mix64(bits);
      }
    }
    return 0;
  }

  bool operator==(const SqlValue& o) const {
    if (kind != o.kind) {
      if (is_null() || o.is_null()) return false;
      return AsDouble() == o.AsDouble();
    }
    switch (kind) {
      case Kind::kNull: return true;
      case Kind::kInt: return i == o.i;
      case Kind::kDouble: return d == o.d;
    }
    return false;
  }
};

/// Three-way SqlValue comparison; NULL sorts first, NaN sorts last. Ordering
/// NaN deterministically (plain `<` answers false both ways) keeps it a
/// strict weak ordering, which std::sort/std::partial_sort require.
inline int CompareValues(const SqlValue& a, const SqlValue& b) {
  if (a.is_null() || b.is_null()) {
    if (a.is_null() && b.is_null()) return 0;
    return a.is_null() ? -1 : 1;
  }
  if (a.kind == SqlValue::Kind::kInt && b.kind == SqlValue::Kind::kInt) {
    return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
  }
  double x = a.AsDouble(), y = b.AsDouble();
  const bool nx = std::isnan(x), ny = std::isnan(y);
  if (nx || ny) {
    if (nx && ny) return 0;
    return nx ? 1 : -1;
  }
  return x < y ? -1 : (x > y ? 1 : 0);
}

/// Physical field of the AllTables relation.
enum class Field : uint8_t { kCell, kTable, kColumn, kRow, kSuperKey, kQuadrant };
constexpr int kNumFields = 6;

/// Canonical field names (paper Fig. 3).
const char* FieldName(Field f);
/// Case-insensitive lookup; returns false when unknown.
bool LookupField(const std::string& name, Field* out);

/// A bound IN-list: its integer literals and the dictionary ids of its
/// string literals in `ints`, its decimal literals in `doubles`, each sorted
/// and distinct. `x IN (a, ...)` holds exactly where `x = a OR ...` does: a
/// string absent from the dictionary binds to -1, as in `x = 'absent'`, and
/// an int and a double compare as doubles.
struct InList {
  std::vector<int64_t> ints;
  std::vector<double> doubles;

  bool ContainsInt(int64_t v) const {
    // Branch-free search for the last element <= v.
    const int64_t* base = ints.data();
    size_t n = ints.size();
    while (n > 1) {
      const size_t half = n / 2;
      base = base[half] <= v ? base + half : base;
      n -= half;
    }
    if (n == 1 && *base == v) return true;
    return !doubles.empty() && ContainsDouble(static_cast<double>(v), false);
  }
  /// Whether a double equals a listed double or, with `ints`, a listed int.
  /// Int-to-double conversion is monotone, so the ints equal to `d` are one
  /// run of the sorted list.
  bool ContainsDouble(double d, bool with_ints) const {
    if (with_ints) {
      auto it = std::lower_bound(ints.begin(), ints.end(), d, [](int64_t a, double b) {
        return static_cast<double>(a) < b;
      });
      if (it != ints.end() && static_cast<double>(*it) == d) return true;
    }
    auto it = std::lower_bound(doubles.begin(), doubles.end(), d);
    return it != doubles.end() && *it == d;
  }
  /// NULL is in no list.
  bool Contains(const SqlValue& v) const {
    if (v.kind == SqlValue::Kind::kInt) return ContainsInt(v.i);
    return v.kind == SqlValue::Kind::kDouble && ContainsDouble(v.d, true);
  }
};

/// Bound (analyzed) expression node kinds.
enum class BKind : uint8_t {
  kField,    // side + field
  kConst,
  kBinary,
  kNot,
  kAbs,
  kInSet,    // child value in an InList
  kIsNull,
  kAggRef,   // value of aggregate #ref (aggregate-context only)
  kKeyRef,   // value of group-by key #ref (aggregate-context only)
};

struct BoundExpr {
  BKind kind;
  uint8_t side = 0;  // 0 = left relation, 1 = right relation
  Field field = Field::kCell;
  SqlValue constant;
  BinOp op = BinOp::kEq;
  std::unique_ptr<BoundExpr> lhs;
  std::unique_ptr<BoundExpr> rhs;
  bool negated = false;
  std::shared_ptr<const InList> set;
  uint32_t ref = 0;
};
using BoundExprPtr = std::unique_ptr<BoundExpr>;

/// Aggregate function instance collected during aggregate-context binding.
struct AggSpec {
  enum class Kind : uint8_t { kCountStar, kCount, kSum, kMin, kMax, kAvg };
  Kind kind;
  bool distinct = false;
  BoundExprPtr arg;  // null for COUNT(*)
};

/// Resolves column references against the visible relations and folds string
/// literals/IN-lists into dictionary-id form.
class Binder {
 public:
  /// Visible columns of one FROM item: exposed name (lower-cased) -> field.
  struct RelColumns {
    std::string alias;  // lower-cased; may be empty
    std::unordered_map<std::string, Field> cols;
  };

  Binder(const Dictionary* dict, std::vector<RelColumns> rels)
      : dict_(dict), rels_(std::move(rels)) {}

  /// Binds a row-level expression (no aggregates).
  Result<BoundExprPtr> BindRowExpr(const Expr& e) const;

  /// Binds an expression in aggregate context: aggregate calls are appended
  /// to *aggs and replaced by kAggRef; bare column refs must match one of the
  /// bound group-by keys in `keys` and become kKeyRef.
  Result<BoundExprPtr> BindAggExpr(const Expr& e,
                                   const std::vector<BoundExprPtr>& keys,
                                   std::vector<AggSpec>* aggs) const;

  /// True if the expression tree contains an aggregate function call.
  static bool ContainsAggregate(const Expr& e);

 private:
  Result<BoundExprPtr> BindColumnRef(const Expr& e) const;
  Result<BoundExprPtr> BindImpl(const Expr& e, bool agg_context,
                                const std::vector<BoundExprPtr>& keys,
                                std::vector<AggSpec>* aggs) const;

  const Dictionary* dict_;
  std::vector<RelColumns> rels_;
};

/// Maximum number of relations in a join chain (an MC seeker over x query
/// columns joins x subqueries).
constexpr int kMaxRels = 6;

/// Positions of the current row in the joined relations.
struct RowCtx {
  RecordPos pos[kMaxRels] = {0, 0, 0, 0, 0, 0};
};

// ---------------------------------------------------------------------------
// Operator semantics, shared by the scalar and the block evaluator. NULL
// compares false and propagates through arithmetic and NOT; AND and OR treat
// NULL as false. Integer +, - and * and ABS return the double result where
// the int64 one would overflow, as mixed operands do; division is always
// floating point and NULL on a zero divisor.
// ---------------------------------------------------------------------------

inline SqlValue ApplyNot(const SqlValue& v) {
  return v.is_null() ? SqlValue::Null() : SqlValue::Bool(!v.IsTruthy());
}

inline SqlValue ApplyAbs(const SqlValue& v) {
  if (v.kind == SqlValue::Kind::kInt) {
    if (v.i == INT64_MIN) return SqlValue::Double(-static_cast<double>(v.i));
    return SqlValue::Int(v.i < 0 ? -v.i : v.i);
  }
  if (v.is_null()) return v;
  return SqlValue::Double(v.d < 0 ? -v.d : v.d);
}

/// `a op b` for an int64 +, - or *; false when it overflows.
inline bool IntArith(BinOp op, int64_t a, int64_t b, int64_t* out) {
  switch (op) {
    case BinOp::kAdd: return !__builtin_add_overflow(a, b, out);
    case BinOp::kSub: return !__builtin_sub_overflow(a, b, out);
    default: return !__builtin_mul_overflow(a, b, out);
  }
}

inline SqlValue ApplyBinary(BinOp op, const SqlValue& l, const SqlValue& r) {
  if (op == BinOp::kAnd) return SqlValue::Bool(l.IsTruthy() && r.IsTruthy());
  if (op == BinOp::kOr) return SqlValue::Bool(l.IsTruthy() || r.IsTruthy());
  const bool arith = op == BinOp::kAdd || op == BinOp::kSub || op == BinOp::kMul ||
                     op == BinOp::kDiv;
  if (l.is_null() || r.is_null()) {
    return arith ? SqlValue::Null() : SqlValue::Bool(false);
  }
  const bool both_int =
      l.kind == SqlValue::Kind::kInt && r.kind == SqlValue::Kind::kInt;
  const double x = l.AsDouble(), y = r.AsDouble();
  switch (op) {
    case BinOp::kEq: return SqlValue::Bool(l == r);
    case BinOp::kNe: return SqlValue::Bool(!(l == r));
    case BinOp::kLt: return SqlValue::Bool(both_int ? l.i < r.i : x < y);
    case BinOp::kLe: return SqlValue::Bool(both_int ? l.i <= r.i : x <= y);
    case BinOp::kGt: return SqlValue::Bool(both_int ? l.i > r.i : x > y);
    case BinOp::kGe: return SqlValue::Bool(both_int ? l.i >= r.i : x >= y);
    case BinOp::kDiv: return y == 0 ? SqlValue::Null() : SqlValue::Double(x / y);
    default: break;
  }
  int64_t v;
  if (both_int && IntArith(op, l.i, r.i, &v)) return SqlValue::Int(v);
  switch (op) {
    case BinOp::kAdd: return SqlValue::Double(x + y);
    case BinOp::kSub: return SqlValue::Double(x - y);
    default: return SqlValue::Double(x * y);
  }
}

/// Scalar evaluator; `leaf` resolves kField / kAggRef / kKeyRef nodes. The
/// executor uses it where the work is once per group or output row.
template <typename LeafFn>
SqlValue EvalExpr(const BoundExpr& e, const LeafFn& leaf) {
  switch (e.kind) {
    case BKind::kField:
    case BKind::kAggRef:
    case BKind::kKeyRef:
      return leaf(e);
    case BKind::kConst:
      return e.constant;
    case BKind::kNot:
      return ApplyNot(EvalExpr(*e.lhs, leaf));
    case BKind::kAbs:
      return ApplyAbs(EvalExpr(*e.lhs, leaf));
    case BKind::kIsNull: {
      SqlValue v = EvalExpr(*e.lhs, leaf);
      return SqlValue::Bool(e.negated ? !v.is_null() : v.is_null());
    }
    case BKind::kInSet: {
      SqlValue v = EvalExpr(*e.lhs, leaf);
      return SqlValue::Bool(e.set->Contains(v) != e.negated);
    }
    case BKind::kBinary: {
      // AND and OR skip the right side once the left decides.
      SqlValue l = EvalExpr(*e.lhs, leaf);
      if (e.op == BinOp::kAnd && !l.IsTruthy()) return SqlValue::Bool(false);
      if (e.op == BinOp::kOr && l.IsTruthy()) return SqlValue::Bool(true);
      return ApplyBinary(e.op, l, EvalExpr(*e.rhs, leaf));
    }
  }
  return SqlValue::Null();
}

/// Field accessor for a store type; used by the executor's leaf functions.
template <typename Store>
inline SqlValue FieldValue(const Store& store, Field f, RecordPos pos) {
  switch (f) {
    case Field::kCell: return SqlValue::Int(static_cast<int64_t>(store.cell(pos)));
    case Field::kTable: return SqlValue::Int(store.table(pos));
    case Field::kColumn: return SqlValue::Int(store.column(pos));
    case Field::kRow: return SqlValue::Int(store.row(pos));
    case Field::kSuperKey:
      return SqlValue::Int(static_cast<int64_t>(store.super_key(pos)));
    case Field::kQuadrant: {
      int8_t q = store.quadrant(pos);
      if (q == kQuadrantNull) return SqlValue::Null();
      return SqlValue::Int(q);
    }
  }
  return SqlValue::Null();
}

// ---------------------------------------------------------------------------
// Block evaluation: a row expression over up to kBlockRows rows at a time.
// ---------------------------------------------------------------------------

constexpr size_t kBlockRows = kPostingBlockLen;

/// One SqlValue per row of a block, as typed lanes. While `all_int` is set,
/// every lane is a non-NULL int held in `i` alone; otherwise `kind` says
/// which of `i` and `d` holds lane k.
struct ValueBlock {
  bool all_int = true;
  SqlValue::Kind kind[kBlockRows];
  int64_t i[kBlockRows];
  double d[kBlockRows];

  SqlValue Get(size_t k) const {
    if (all_int || kind[k] == SqlValue::Kind::kInt) return SqlValue::Int(i[k]);
    return kind[k] == SqlValue::Kind::kNull ? SqlValue::Null() : SqlValue::Double(d[k]);
  }
  void Set(size_t k, const SqlValue& v) {
    kind[k] = v.kind;
    i[k] = v.i;
    d[k] = v.d;
  }
  bool Truthy(size_t k) const { return all_int ? i[k] != 0 : Get(k).IsTruthy(); }
};

/// A task's scratch blocks for BlockExpr::Eval.
using BlockRegs = std::vector<ValueBlock>;

/// Row k's record on relation `side`, for block rows that are joined rows.
struct RowPos {
  RecordPos operator()(const RowCtx& r, uint8_t side) const { return r.pos[side]; }
};
/// The same for rows that are single records (one relation).
struct SelfPos {
  RecordPos operator()(RecordPos p, uint8_t) const { return p; }
};

/// A bound row expression compiled for block evaluation: its nodes in
/// postorder, each writing one register. A node's left operand is in its
/// own register and its right one in the next, so a tree needs one register
/// per right turn on its deepest path. Every operator follows the shared
/// semantics above; both sides of AND and OR are evaluated, which no
/// operator can observe. Refers to the BoundExpr, which must outlive it.
class BlockExpr {
 public:
  explicit BlockExpr(const BoundExpr& root) { Compile(root, 0); }

  /// Evaluates the expression for `rows` (at most kBlockRows), where
  /// pos(row, side) is a row's record on relation `side`, and returns the
  /// root's block, which lives in `*regs` until the next Eval.
  template <typename Store, typename Row, typename PosFn>
  const ValueBlock& Eval(const Store& store, std::span<const Row> rows,
                         const PosFn& pos, BlockRegs* regs) const {
    if (regs->size() < num_regs_) regs->resize(num_regs_);
    for (const Node& node : nodes_) {
      ValueBlock* out = regs->data() + node.reg;
      if (node.e->kind == BKind::kField) {
        Gather(store, node.e->field, node.e->side, rows, pos, out);
      } else {
        EvalNode(*node.e, out, rows.size());
      }
    }
    return (*regs)[0];
  }

 private:
  struct Node {
    const BoundExpr* e;
    uint32_t reg;
  };

  void Compile(const BoundExpr& e, uint32_t reg);
  /// A non-leaf node: its operands are in out[0] and out[1]; the result
  /// overwrites out[0].
  static void EvalNode(const BoundExpr& e, ValueBlock* out, size_t n);

  template <typename Store, typename Row, typename PosFn>
  static void Gather(const Store& store, Field f, uint8_t side,
                     std::span<const Row> rows, const PosFn& pos, ValueBlock* out) {
    const size_t n = rows.size();
    auto fill = [&](const auto& value) {
      for (size_t k = 0; k < n; ++k) out->i[k] = value(pos(rows[k], side));
    };
    out->all_int = true;
    switch (f) {
      case Field::kCell: fill([&](RecordPos p) { return store.cell(p); }); return;
      case Field::kTable: fill([&](RecordPos p) { return store.table(p); }); return;
      case Field::kColumn: fill([&](RecordPos p) { return store.column(p); }); return;
      case Field::kRow: fill([&](RecordPos p) { return store.row(p); }); return;
      case Field::kSuperKey:
        fill([&](RecordPos p) { return static_cast<int64_t>(store.super_key(p)); });
        return;
      case Field::kQuadrant: {
        bool any_null = false;
        for (size_t k = 0; k < n; ++k) {
          const int8_t q = store.quadrant(pos(rows[k], side));
          const bool null = q == kQuadrantNull;
          any_null |= null;
          out->kind[k] = null ? SqlValue::Kind::kNull : SqlValue::Kind::kInt;
          out->i[k] = null ? 0 : q;
        }
        out->all_int = !any_null;
        return;
      }
    }
  }

  std::vector<Node> nodes_;
  uint32_t num_regs_ = 0;
};

/// Compacts rows[0, n) to the rows for which every predicate in `preds`
/// holds, in order, evaluating a block of kBlockRows rows at a time; returns
/// how many remain.
template <typename Store, typename Row, typename PosFn>
size_t KeepWhereAll(const Store& store, const std::vector<BlockExpr>& preds,
                    const PosFn& pos, Row* rows, size_t n, BlockRegs* regs) {
  if (preds.empty()) return n;
  size_t kept = 0;
  for (size_t b = 0; b < n; b += kBlockRows) {
    const std::span<const Row> block(rows + b, std::min(kBlockRows, n - b));
    bool keep[kBlockRows];
    std::fill(keep, keep + block.size(), true);
    for (const BlockExpr& pred : preds) {
      const ValueBlock& v = pred.Eval(store, block, pos, regs);
      for (size_t k = 0; k < block.size(); ++k) keep[k] = keep[k] && v.Truthy(k);
    }
    for (size_t k = 0; k < block.size(); ++k) {
      if (keep[k]) rows[kept++] = rows[b + k];
    }
  }
  return kept;
}

/// The block form of each expression in `exprs`.
std::vector<BlockExpr> CompileBlockExprs(const std::vector<BoundExprPtr>& exprs);

}  // namespace blend::sql
