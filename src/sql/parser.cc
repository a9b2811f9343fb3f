#include "sql/parser.h"

#include <cstdlib>

#include "common/str_util.h"
#include "sql/lexer.h"

namespace blend::sql {

namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  Result<std::unique_ptr<SelectStmt>> ParseStatement() {
    BLEND_ASSIGN_OR_RETURN(auto stmt, ParseSelect());
    Accept(TokKind::kSemicolon);
    if (!Check(TokKind::kEnd)) return Err("trailing tokens after statement");
    return stmt;
  }

  Result<Statement> ParseTopLevel() {
    Statement stmt;
    if (AcceptKeyword("EXPLAIN")) {
      stmt.explain =
          AcceptKeyword("ANALYZE") ? ExplainMode::kAnalyze : ExplainMode::kPlan;
      if (CheckKeyword("EXPLAIN")) return Err("EXPLAIN cannot be nested");
      if (Check(TokKind::kEnd) || Check(TokKind::kSemicolon)) {
        return Err("EXPLAIN requires a statement");
      }
    } else if (CheckKeyword("ANALYZE")) {
      return Err("ANALYZE is only valid as EXPLAIN ANALYZE");
    }
    BLEND_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
    Accept(TokKind::kSemicolon);
    if (!Check(TokKind::kEnd)) return Err("trailing tokens after statement");
    return stmt;
  }

 private:
  // ---- token helpers -------------------------------------------------------

  const Token& Peek() const { return toks_[pos_]; }
  const Token& Peek2() const {
    return pos_ + 1 < toks_.size() ? toks_[pos_ + 1] : toks_.back();
  }
  Token Advance() { return toks_[pos_++]; }
  bool Check(TokKind k) const { return Peek().kind == k; }

  bool CheckKeyword(const char* kw) const {
    return Peek().kind == TokKind::kIdent && KeywordEq(Peek().text, kw);
  }
  static bool KeywordEq(const std::string& text, const char* kw) {
    if (text.size() != std::string_view(kw).size()) return false;
    for (size_t i = 0; i < text.size(); ++i) {
      char a = text[i];
      if (a >= 'a' && a <= 'z') a = static_cast<char>(a - 'a' + 'A');
      if (a != kw[i]) return false;
    }
    return true;
  }

  bool Accept(TokKind k) {
    if (Check(k)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AcceptKeyword(const char* kw) {
    if (CheckKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Err(const std::string& msg) const {
    return Status::ParseError(msg + " near offset " + std::to_string(Peek().offset) +
                              " ('" + Peek().text + "')");
  }

  Status Expect(TokKind k, const char* what) {
    if (!Accept(k)) return Err(std::string("expected ") + what);
    return Status::OK();
  }
  Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) return Err(std::string("expected keyword ") + kw);
    return Status::OK();
  }

  // ---- grammar --------------------------------------------------------------

  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    BLEND_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    auto stmt = std::make_unique<SelectStmt>();

    // Select list.
    if (Check(TokKind::kStar)) {
      Advance();
      stmt->select_star = true;
    } else {
      do {
        SelectItem item;
        BLEND_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("AS")) {
          if (!Check(TokKind::kIdent)) return Err("expected alias after AS");
          item.alias = Advance().text;
        } else if (Check(TokKind::kIdent) && !IsClauseKeyword(Peek().text)) {
          item.alias = Advance().text;  // bare alias
        }
        stmt->items.push_back(std::move(item));
      } while (Accept(TokKind::kComma));
    }

    // FROM.
    BLEND_RETURN_NOT_OK(ExpectKeyword("FROM"));
    BLEND_ASSIGN_OR_RETURN(auto first, ParseTableRef());
    stmt->from.push_back(std::move(first));

    while (CheckKeyword("INNER") || CheckKeyword("JOIN")) {
      AcceptKeyword("INNER");
      BLEND_RETURN_NOT_OK(ExpectKeyword("JOIN"));
      BLEND_ASSIGN_OR_RETURN(auto next, ParseTableRef());
      stmt->from.push_back(std::move(next));
      BLEND_RETURN_NOT_OK(ExpectKeyword("ON"));
      ExprPtr on;
      BLEND_ASSIGN_OR_RETURN(on, ParseExpr());
      stmt->join_ons.push_back(std::move(on));
    }

    if (AcceptKeyword("WHERE")) {
      BLEND_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }

    if (AcceptKeyword("GROUP")) {
      BLEND_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        BLEND_ASSIGN_OR_RETURN(auto e, ParseExpr());
        stmt->group_by.push_back(std::move(e));
      } while (Accept(TokKind::kComma));
    }

    if (AcceptKeyword("ORDER")) {
      BLEND_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        OrderItem oi;
        BLEND_ASSIGN_OR_RETURN(oi.expr, ParseExpr());
        if (AcceptKeyword("DESC")) {
          oi.desc = true;
        } else {
          AcceptKeyword("ASC");
        }
        stmt->order_by.push_back(std::move(oi));
      } while (Accept(TokKind::kComma));
    }

    if (AcceptKeyword("LIMIT")) {
      if (!Check(TokKind::kNumber)) return Err("expected number after LIMIT");
      stmt->limit = std::strtoll(Advance().text.c_str(), nullptr, 10);
    }

    return stmt;
  }

  static bool IsClauseKeyword(const std::string& t) {
    return KeywordEq(t, "FROM") || KeywordEq(t, "WHERE") || KeywordEq(t, "GROUP") ||
           KeywordEq(t, "ORDER") || KeywordEq(t, "LIMIT") || KeywordEq(t, "INNER") ||
           KeywordEq(t, "JOIN") || KeywordEq(t, "ON") || KeywordEq(t, "AS");
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    if (Accept(TokKind::kLParen)) {
      BLEND_ASSIGN_OR_RETURN(auto sub, ParseSelect());
      ref.is_subquery = true;
      ref.subquery = std::move(sub);
      BLEND_RETURN_NOT_OK(Expect(TokKind::kRParen, "')' after subquery"));
    } else {
      if (!Check(TokKind::kIdent)) return Err("expected table name");
      ref.base_name = Advance().text;
    }
    if (AcceptKeyword("AS")) {
      if (!Check(TokKind::kIdent)) return Err("expected alias after AS");
      ref.alias = Advance().text;
    } else if (Check(TokKind::kIdent) && !IsClauseKeyword(Peek().text) &&
               !CheckKeyword("INNER") && !CheckKeyword("JOIN") && !CheckKeyword("ON")) {
      ref.alias = Advance().text;
    }
    return ref;
  }

  // Precedence: OR < AND < NOT < comparison/IN/IS < additive < multiplicative
  // < unary < primary.
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    BLEND_ASSIGN_OR_RETURN(auto lhs, ParseAnd());
    while (AcceptKeyword("OR")) {
      BLEND_ASSIGN_OR_RETURN(auto rhs, ParseAnd());
      lhs = MakeBinary(BinOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    BLEND_ASSIGN_OR_RETURN(auto lhs, ParseNot());
    while (AcceptKeyword("AND")) {
      BLEND_ASSIGN_OR_RETURN(auto rhs, ParseNot());
      lhs = MakeBinary(BinOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (AcceptKeyword("NOT")) {
      BLEND_ASSIGN_OR_RETURN(auto inner, ParseNot());
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kNot;
      e->lhs = std::move(inner);
      return e;
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    BLEND_ASSIGN_OR_RETURN(auto lhs, ParseAdditive());

    // IS [NOT] NULL
    if (AcceptKeyword("IS")) {
      bool negated = AcceptKeyword("NOT");
      BLEND_RETURN_NOT_OK(ExpectKeyword("NULL"));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kIsNull;
      e->negated = negated;
      e->lhs = std::move(lhs);
      return ExprPtr(std::move(e));
    }

    // [NOT] IN (list)
    bool not_in = false;
    if (CheckKeyword("NOT") && Peek2().kind == TokKind::kIdent &&
        KeywordEq(Peek2().text, "IN")) {
      Advance();
      not_in = true;
    }
    if (AcceptKeyword("IN")) {
      BLEND_RETURN_NOT_OK(Expect(TokKind::kLParen, "'(' after IN"));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kInList;
      e->negated = not_in;
      e->lhs = std::move(lhs);
      if (Check(TokKind::kRParen)) {
        // An empty IN-list is almost always a generator bug (a seeker whose
        // normalized input came out empty); reject it loudly rather than
        // guessing a truth value.
        return Err("IN-list must not be empty (callers must short-circuit "
                   "empty inputs instead of emitting IN ())");
      }
      do {
        if (Check(TokKind::kString)) {
          e->in_strings.push_back(Advance().text);
          continue;
        }
        // A number reads as in a bare literal: decimal with a '.', else int.
        const bool minus = Accept(TokKind::kMinus);
        if (!Check(TokKind::kNumber)) {
          return Err(minus ? "expected number after '-'"
                           : "expected literal in IN-list");
        }
        const std::string text = Advance().text;
        if (text.find('.') != std::string::npos) {
          const double v = std::strtod(text.c_str(), nullptr);
          e->in_doubles.push_back(minus ? -v : v);
        } else {
          const int64_t v = std::strtoll(text.c_str(), nullptr, 10);
          e->in_ints.push_back(minus ? -v : v);
        }
      } while (Accept(TokKind::kComma));
      BLEND_RETURN_NOT_OK(Expect(TokKind::kRParen, "')' after IN-list"));
      return ExprPtr(std::move(e));
    }

    // Binary comparison.
    BinOp op;
    if (Accept(TokKind::kEq)) {
      op = BinOp::kEq;
    } else if (Accept(TokKind::kNe)) {
      op = BinOp::kNe;
    } else if (Accept(TokKind::kLt)) {
      op = BinOp::kLt;
    } else if (Accept(TokKind::kLe)) {
      op = BinOp::kLe;
    } else if (Accept(TokKind::kGt)) {
      op = BinOp::kGt;
    } else if (Accept(TokKind::kGe)) {
      op = BinOp::kGe;
    } else {
      return lhs;
    }
    BLEND_ASSIGN_OR_RETURN(auto rhs, ParseAdditive());
    return MakeBinary(op, std::move(lhs), std::move(rhs));
  }

  Result<ExprPtr> ParseAdditive() {
    BLEND_ASSIGN_OR_RETURN(auto lhs, ParseMultiplicative());
    while (true) {
      if (Accept(TokKind::kPlus)) {
        BLEND_ASSIGN_OR_RETURN(auto rhs, ParseMultiplicative());
        lhs = MakeBinary(BinOp::kAdd, std::move(lhs), std::move(rhs));
      } else if (Accept(TokKind::kMinus)) {
        BLEND_ASSIGN_OR_RETURN(auto rhs, ParseMultiplicative());
        lhs = MakeBinary(BinOp::kSub, std::move(lhs), std::move(rhs));
      } else {
        return lhs;
      }
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    BLEND_ASSIGN_OR_RETURN(auto lhs, ParseUnary());
    while (true) {
      if (Accept(TokKind::kStar)) {
        BLEND_ASSIGN_OR_RETURN(auto rhs, ParseUnary());
        lhs = MakeBinary(BinOp::kMul, std::move(lhs), std::move(rhs));
      } else if (Accept(TokKind::kSlash)) {
        BLEND_ASSIGN_OR_RETURN(auto rhs, ParseUnary());
        lhs = MakeBinary(BinOp::kDiv, std::move(lhs), std::move(rhs));
      } else {
        return lhs;
      }
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (Accept(TokKind::kMinus)) {
      BLEND_ASSIGN_OR_RETURN(auto inner, ParseUnary());
      auto zero = std::make_unique<Expr>();
      zero->kind = ExprKind::kIntLiteral;
      zero->int_val = 0;
      return MakeBinary(BinOp::kSub, std::move(zero), std::move(inner));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    if (Accept(TokKind::kLParen)) {
      BLEND_ASSIGN_OR_RETURN(auto inner, ParseExpr());
      BLEND_RETURN_NOT_OK(Expect(TokKind::kRParen, "')'"));
      return inner;
    }
    if (Check(TokKind::kNumber)) {
      Token t = Advance();
      auto e = std::make_unique<Expr>();
      if (t.text.find('.') != std::string::npos) {
        e->kind = ExprKind::kDoubleLiteral;
        e->dbl_val = std::strtod(t.text.c_str(), nullptr);
      } else {
        e->kind = ExprKind::kIntLiteral;
        e->int_val = std::strtoll(t.text.c_str(), nullptr, 10);
      }
      return ExprPtr(std::move(e));
    }
    if (Check(TokKind::kString)) {
      Token t = Advance();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kStringLiteral;
      e->str_val = t.text;
      return ExprPtr(std::move(e));
    }
    if (Check(TokKind::kIdent)) {
      Token t = Advance();
      // Function call?
      if (Check(TokKind::kLParen) && IsFunctionName(t.text)) {
        Advance();  // '('
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kFuncCall;
        e->func = Upper(t.text);
        if (Accept(TokKind::kStar)) {
          auto star = std::make_unique<Expr>();
          star->kind = ExprKind::kStar;
          e->args.push_back(std::move(star));
        } else if (!Check(TokKind::kRParen)) {
          if (AcceptKeyword("DISTINCT")) e->distinct = true;
          do {
            BLEND_ASSIGN_OR_RETURN(auto arg, ParseExpr());
            e->args.push_back(std::move(arg));
          } while (Accept(TokKind::kComma));
        }
        BLEND_RETURN_NOT_OK(Expect(TokKind::kRParen, "')' after function args"));
        return ExprPtr(std::move(e));
      }
      // Column reference, possibly alias.column.
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kColumnRef;
      if (Accept(TokKind::kDot)) {
        if (!Check(TokKind::kIdent)) return Err("expected column after '.'");
        e->table_alias = t.text;
        e->column = Advance().text;
      } else {
        e->column = t.text;
      }
      return ExprPtr(std::move(e));
    }
    return Err("expected expression");
  }

  static bool IsFunctionName(const std::string& t) {
    return KeywordEq(t, "COUNT") || KeywordEq(t, "SUM") || KeywordEq(t, "ABS") ||
           KeywordEq(t, "MIN") || KeywordEq(t, "MAX") || KeywordEq(t, "AVG");
  }

  static std::string Upper(const std::string& s) {
    std::string out = s;
    for (auto& c : out) {
      if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    }
    return out;
  }

  static ExprPtr MakeBinary(BinOp op, ExprPtr lhs, ExprPtr rhs) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kBinary;
    e->op = op;
    e->lhs = std::move(lhs);
    e->rhs = std::move(rhs);
    return e;
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<SelectStmt>> Parse(const std::string& sql) {
  BLEND_ASSIGN_OR_RETURN(auto toks, Lex(sql));
  Parser p(std::move(toks));
  return p.ParseStatement();
}

Result<Statement> ParseStatement(const std::string& sql) {
  BLEND_ASSIGN_OR_RETURN(auto toks, Lex(sql));
  Parser p(std::move(toks));
  return p.ParseTopLevel();
}

}  // namespace blend::sql
