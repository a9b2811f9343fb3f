#include "sql/expr_eval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "index/builder.h"

namespace blend::sql {
namespace {

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();

/// Three tables of text and numeric columns, so Quadrant is NULL on some
/// records and 0 or 1 on others.
DataLake MakeLake(Rng* rng) {
  DataLake lake("expr");
  for (int t = 0; t < 3; ++t) {
    Table table("t" + std::to_string(t));
    for (const char* c : {"name", "num", "mixed"}) table.AddColumn(c);
    for (int r = 0; r < 40; ++r) {
      const bool text = rng->Uniform(3) == 0;
      (void)table.AppendRow({"w" + std::to_string(rng->Uniform(25)),
                             std::to_string(static_cast<int>(rng->Uniform(100)) - 50),
                             text ? "x" + std::to_string(r) : std::to_string(r % 7)});
    }
    lake.AddTable(std::move(table));
  }
  return lake;
}

BoundExprPtr Node(BKind kind) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = kind;
  return e;
}

SqlValue RandomInt(Rng* rng) {
  static constexpr int64_t kEdges[] = {0, 1, -1, 2, 7, 50, kMax, kMin, kMax - 1,
                                       kMin + 1, int64_t{1} << 62, -(int64_t{1} << 62),
                                       int64_t{3037000500}};
  if (rng->Uniform(2) == 0) {
    return SqlValue::Int(kEdges[rng->Uniform(std::size(kEdges))]);
  }
  return SqlValue::Int(static_cast<int64_t>(rng->Uniform(80)) - 40);
}

SqlValue RandomDouble(Rng* rng) {
  static constexpr double kEdges[] = {0.0, -0.0, 0.5, 1.0, 2.5, -3.25, 1e18, 9.3e18,
                                      -9.3e18, 9223372036854775808.0};
  return SqlValue::Double(kEdges[rng->Uniform(std::size(kEdges))]);
}

/// A random row expression of depth <= `depth` over both relations' fields.
BoundExprPtr RandomExpr(Rng* rng, int depth) {
  if (depth == 0 || rng->Uniform(5) == 0) {
    if (rng->Uniform(2) == 0) {
      auto e = Node(BKind::kField);
      e->side = static_cast<uint8_t>(rng->Uniform(2));
      e->field = static_cast<Field>(rng->Uniform(kNumFields));
      return e;
    }
    auto e = Node(BKind::kConst);
    const uint64_t pick = rng->Uniform(8);
    if (pick < 5) e->constant = pick == 0 ? SqlValue::Null() : RandomInt(rng);
    if (pick >= 5) e->constant = RandomDouble(rng);
    return e;
  }
  switch (rng->Uniform(6)) {
    case 0: {
      auto e = Node(BKind::kNot);
      e->lhs = RandomExpr(rng, depth - 1);
      return e;
    }
    case 1: {
      auto e = Node(BKind::kAbs);
      e->lhs = RandomExpr(rng, depth - 1);
      return e;
    }
    case 2: {
      auto e = Node(BKind::kIsNull);
      e->negated = rng->Uniform(2) == 0;
      e->lhs = RandomExpr(rng, depth - 1);
      return e;
    }
    case 3: {
      auto e = Node(BKind::kInSet);
      e->negated = rng->Uniform(2) == 0;
      e->lhs = RandomExpr(rng, depth - 1);
      auto set = std::make_shared<InList>();
      for (uint64_t i = 0, n = 1 + rng->Uniform(6); i < n; ++i) {
        if (rng->Uniform(4) == 0) {
          set->doubles.push_back(RandomDouble(rng).d);
        } else {
          set->ints.push_back(RandomInt(rng).i);
        }
      }
      std::sort(set->ints.begin(), set->ints.end());
      set->ints.erase(std::unique(set->ints.begin(), set->ints.end()), set->ints.end());
      std::sort(set->doubles.begin(), set->doubles.end());
      e->set = std::move(set);
      return e;
    }
    default: {
      auto e = Node(BKind::kBinary);
      e->op = static_cast<BinOp>(rng->Uniform(static_cast<uint64_t>(BinOp::kDiv) + 1));
      e->lhs = RandomExpr(rng, depth - 1);
      e->rhs = RandomExpr(rng, depth - 1);
      return e;
    }
  }
}

/// Same kind and value; doubles compare by bit pattern, NaN equal to NaN.
bool Same(const SqlValue& a, const SqlValue& b) {
  if (a.kind != b.kind) return false;
  if (a.kind == SqlValue::Kind::kInt) return a.i == b.i;
  if (a.kind == SqlValue::Kind::kNull) return true;
  if (std::isnan(a.d) || std::isnan(b.d)) return std::isnan(a.d) && std::isnan(b.d);
  return std::memcmp(&a.d, &b.d, sizeof(double)) == 0;
}

std::string Show(const SqlValue& v) {
  if (v.is_null()) return "NULL";
  if (v.kind == SqlValue::Kind::kInt) return "int " + std::to_string(v.i);
  return "double " + std::to_string(v.d);
}

class ExprEvalTest : public ::testing::TestWithParam<StoreLayout> {
 protected:
  template <typename Store>
  void CheckTrees(const Store& store, Rng* rng) {
    // Joined rows over two relations; block sizes 1, 77 and a full block.
    std::vector<RowCtx> rows(300);
    for (RowCtx& r : rows) {
      r.pos[0] = static_cast<RecordPos>(rng->Uniform(store.NumRecords()));
      r.pos[1] = static_cast<RecordPos>(rng->Uniform(store.NumRecords()));
    }
    BlockRegs regs;
    for (int tree = 0; tree < 600; ++tree) {
      const BoundExprPtr e = RandomExpr(rng, 4);
      const BlockExpr block(*e);
      const size_t len = tree % 3 == 0 ? 1 : tree % 3 == 1 ? 77 : kBlockRows;
      for (size_t b = 0; b < rows.size(); b += len) {
        const std::span<const RowCtx> span(rows.data() + b,
                                           std::min(len, rows.size() - b));
        const ValueBlock& got = block.Eval(store, span, RowPos{}, &regs);
        for (size_t k = 0; k < span.size(); ++k) {
          const SqlValue want = EvalExpr(*e, [&](const BoundExpr& leaf) {
            return FieldValue(store, leaf.field, span[k].pos[leaf.side]);
          });
          ASSERT_TRUE(Same(want, got.Get(k)))
              << "tree " << tree << " row " << b + k << ": scalar " << Show(want)
              << ", block " << Show(got.Get(k));
          ASSERT_EQ(want.IsTruthy(), got.Truthy(k)) << "tree " << tree;
        }
      }
    }
  }
};

TEST_P(ExprEvalTest, BlockEvaluatorEqualsScalarEvaluatorRowByRow) {
  // Seeded random bound trees of depth <= 4 over every field (NULL Quadrant
  // included) with int and decimal literals near the int64 limits, every
  // arithmetic, comparison and logical operator, division by zero, NOT,
  // IS [NOT] NULL, [NOT] IN and ABS.
  Rng rng(20261019);
  const DataLake lake = MakeLake(&rng);
  IndexBuildOptions opts;
  opts.layout = GetParam();
  const IndexBundle bundle = IndexBuilder(opts).Build(lake);
  int8_t seen_null = 0, seen_quadrant = 0;
  const size_t n = bundle.NumRecords();
  for (RecordPos p = 0; p < n; ++p) {
    const int8_t q = GetParam() == StoreLayout::kRow
                         ? bundle.row_store().quadrant(p)
                         : bundle.column_store().quadrant(p);
    (q == kQuadrantNull ? seen_null : seen_quadrant) = 1;
  }
  ASSERT_TRUE(seen_null && seen_quadrant);
  if (GetParam() == StoreLayout::kRow) {
    CheckTrees(bundle.row_store(), &rng);
  } else {
    CheckTrees(bundle.column_store(), &rng);
  }
}

TEST(InListTest, ProbesCompareAsEqualityDoes) {
  InList list;
  list.ints = {-1, 3, kMax};
  list.doubles = {0.5, 9223372036854775808.0};
  EXPECT_TRUE(list.Contains(SqlValue::Int(3)));
  EXPECT_TRUE(list.Contains(SqlValue::Double(3.0)));
  EXPECT_FALSE(list.Contains(SqlValue::Double(3.5)));
  EXPECT_TRUE(list.Contains(SqlValue::Double(0.5)));
  EXPECT_FALSE(list.Contains(SqlValue::Int(0)));
  EXPECT_FALSE(list.Contains(SqlValue::Null()));
  // kMax - 1 is not listed, but as a double it equals the listed 2^63.
  EXPECT_TRUE(list.Contains(SqlValue::Int(kMax - 1)));
  EXPECT_FALSE(list.Contains(SqlValue::Double(std::nan(""))));
  const InList empty_ints{{}, {2.0}};
  EXPECT_TRUE(empty_ints.Contains(SqlValue::Int(2)));
  EXPECT_FALSE(empty_ints.Contains(SqlValue::Int(1)));
}

INSTANTIATE_TEST_SUITE_P(Layouts, ExprEvalTest,
                         ::testing::Values(StoreLayout::kRow, StoreLayout::kColumn));

}  // namespace
}  // namespace blend::sql
