// blend_lint: a token-level invariant linter for the BLEND source tree.
//
// The project defends a handful of invariants that ordinary compiler warnings
// cannot express, and that have historically only been caught deep inside the
// property suites (or not at all):
//
//   ignored-status    A call to a function returning Status / Result<T> used
//                     as a bare statement (or discarded through a `(void)`
//                     cast). Pairs with the [[nodiscard]] attributes on
//                     common/status.h: the compiler catches most sites, the
//                     linter additionally rejects `(void)` laundering.
//   raw-thread        std::thread / std::jthread / std::async outside
//                     common/scheduler.{h,cc}. All parallelism must go
//                     through the shared work-stealing scheduler, or the
//                     determinism and TSan stories fall apart.
//   nondeterminism    rand / srand / std::random_device / system_clock /
//                     time() in the deterministic query/index paths
//                     (src/core, src/sql, src/index). Results must be a pure
//                     function of the index content.
//   unordered-iter    Range-for iteration over a std::unordered_map/set in
//                     the deterministic paths. Hash-table iteration order is
//                     implementation-defined; any loop whose effects depend
//                     on it breaks the byte-identity contract. Sites that
//                     re-canonicalize (e.g. sort immediately after) carry an
//                     allow comment.
//   unchecked-cast    reinterpret_cast outside index/snapshot.cc and
//                     index/codec.cc, the two files whose byte-level casts
//                     sit behind exhaustive validation.
//   unchecked-value   .value() / .ValueOrDie() on a Result in non-test code
//                     without a same-statement ok() check or BLEND_CHECK.
//                     An error Status reaching ValueOrDie aborts with no
//                     diagnostic context; production paths must branch on
//                     ok() (or prove the invariant with BLEND_CHECK) first.
//   no-raw-stdio      printf-family calls or std::cout/std::cerr in library
//                     code (src/). The library reports through Status values
//                     and rendered strings; direct terminal writes belong to
//                     the tools/examples/bench entry points that own the
//                     process's stdio. The few legitimate sites (table
//                     renderers' snprintf formatting, abort-path fprintf in
//                     status.h) carry allow annotations.
//   hot-clock         steady_clock / high_resolution_clock ::now() in the
//                     query/index hot paths (src/core, src/sql, src/index).
//                     Timing those paths is the telemetry subsystem's job:
//                     raw clock reads belong in common/telemetry.h,
//                     common/timer.h (StopWatch), and common/control.h only,
//                     where they are centrally accounted and kept off the
//                     per-row fast path.
//
// Escape hatch: `// blend-lint: allow(rule)` on the offending line or the
// line directly above suppresses that rule there (comma-separate several
// rules; `allow(all)` suppresses everything).
//
// The tool is deliberately token-level (no libclang): it lexes C++ enough to
// skip comments/strings, fold `::` and `->`, and pattern-match the rules.
// That keeps it a single dependency-free translation unit that builds in
// under a second and runs over the whole tree in milliseconds.
//
// Usage:
//   blend_lint <dir|file>...          lint .h/.cc files (recursing into dirs)
//   blend_lint --self-test <fixtures> run against the fixture corpus; each
//                                     fixture declares its expected findings
//                                     with `// expect-violation(rule)` lines.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Token {
  std::string text;
  int line = 0;
};

struct Violation {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Violation& o) const {
    return std::tie(file, line, rule) < std::tie(o.file, o.line, o.rule);
  }
};

struct LexedFile {
  std::vector<Token> tokens;
  // line -> rules allowed on that line (from blend-lint: allow(...) comments;
  // an annotation also covers the next line so it can sit above the code).
  std::map<int, std::set<std::string>> allows;
  // line -> rules a fixture expects to fire on that line (self-test only).
  std::map<int, std::set<std::string>> expects;
};

bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsIdentChar(char c) { return IsIdentStart(c) || (c >= '0' && c <= '9'); }

/// Parses "name(arg1, arg2)" occurrences of `marker` in a comment and adds
/// each arg to `out` for `line` (and, for allow, the following line).
void ParseCommentDirective(const std::string& comment, const std::string& marker,
                          int line, bool also_next_line,
                          std::map<int, std::set<std::string>>* out) {
  size_t at = comment.find(marker);
  while (at != std::string::npos) {
    const size_t open = comment.find('(', at);
    const size_t close = comment.find(')', at);
    if (open == std::string::npos || close == std::string::npos || close < open) {
      return;
    }
    std::stringstream args(comment.substr(open + 1, close - open - 1));
    std::string rule;
    while (std::getline(args, rule, ',')) {
      const size_t b = rule.find_first_not_of(" \t");
      const size_t e = rule.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      rule = rule.substr(b, e - b + 1);
      (*out)[line].insert(rule);
      if (also_next_line) (*out)[line + 1].insert(rule);
    }
    at = comment.find(marker, close);
  }
}

void HandleComment(const std::string& text, int line, LexedFile* out) {
  ParseCommentDirective(text, "blend-lint: allow", line, /*also_next_line=*/true,
                        &out->allows);
  ParseCommentDirective(text, "expect-violation", line, /*also_next_line=*/false,
                        &out->expects);
}

/// Lexes enough C++ to make the rules reliable: comments and string/char
/// literals (including raw strings) vanish, `::` and `->` fold into single
/// tokens, everything else is identifiers, numbers, or single characters.
LexedFile Lex(const std::string& src) {
  LexedFile out;
  int line = 1;
  size_t i = 0;
  const size_t n = src.size();
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const size_t end = src.find('\n', i);
      const std::string comment =
          src.substr(i, end == std::string::npos ? n - i : end - i);
      HandleComment(comment, line, &out);
      i = end == std::string::npos ? n : end;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const size_t end = src.find("*/", i + 2);
      const size_t stop = end == std::string::npos ? n : end + 2;
      HandleComment(src.substr(i, stop - i), line, &out);
      for (size_t j = i; j < stop; ++j) {
        if (src[j] == '\n') ++line;
      }
      i = stop;
      continue;
    }
    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"' &&
        (i == 0 || !IsIdentChar(src[i - 1]))) {
      size_t d = i + 2;
      while (d < n && src[d] != '(') ++d;
      const std::string delim = ")" + src.substr(i + 2, d - (i + 2)) + "\"";
      const size_t end = src.find(delim, d);
      const size_t stop = end == std::string::npos ? n : end + delim.size();
      for (size_t j = i; j < stop; ++j) {
        if (src[j] == '\n') ++line;
      }
      out.tokens.push_back({"\"str\"", line});
      i = stop;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        if (src[j] == '\n') ++line;
        ++j;
      }
      out.tokens.push_back({quote == '"' ? "\"str\"" : "'chr'", line});
      i = j + 1;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(src[j])) ++j;
      out.tokens.push_back({src.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (c >= '0' && c <= '9') {
      size_t j = i;
      while (j < n && (IsIdentChar(src[j]) || src[j] == '.' || src[j] == '\'' ||
                       ((src[j] == '+' || src[j] == '-') && j > i &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                         src[j - 1] == 'p' || src[j - 1] == 'P')))) {
        ++j;
      }
      out.tokens.push_back({"0num", line});
      i = j;
      continue;
    }
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.tokens.push_back({"::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      out.tokens.push_back({"->", line});
      i += 2;
      continue;
    }
    out.tokens.push_back({std::string(1, c), line});
    ++i;
  }
  return out;
}

/// Skips a balanced bracket run starting at tokens[i] == open. Returns the
/// index one past the matching close (or tokens.size() when unbalanced).
size_t SkipBalanced(const std::vector<Token>& toks, size_t i, const char* open,
                    const char* close) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (toks[i].text == open) {
      ++depth;
    } else if (toks[i].text == close) {
      if (--depth == 0) return i + 1;
    } else if (depth > 0 && (toks[i].text == ";" || toks[i].text == "{")) {
      // Angle brackets that were really comparisons; bail out.
      if (open[0] == '<') return i;
    }
  }
  return toks.size();
}

// ---------------------------------------------------------------------------
// Pass 1: collect the names of functions declared to return Status/Result.
// ---------------------------------------------------------------------------

void CollectStatusFunctions(const std::vector<Token>& toks,
                            std::set<std::string>* status_fns) {
  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t != "Status" && t != "Result") continue;
    if (i > 0) {
      const std::string& prev = toks[i - 1].text;
      // Not a return type when qualified/accessed/returned/declared.
      if (prev == "::" || prev == "." || prev == "->" || prev == "return" ||
          prev == "class" || prev == "struct" || prev == "enum" ||
          prev == "<" || prev == ",") {
        continue;
      }
    }
    size_t j = i + 1;
    if (t == "Result") {
      if (j >= toks.size() || toks[j].text != "<") continue;
      j = SkipBalanced(toks, j, "<", ">");
    }
    // Optional reference/pointer declarators never apply to Status returns
    // here; a `&`/`*` means it is not the by-value declaration we care about.
    if (j + 1 < toks.size() && IsIdentStart(toks[j].text[0]) &&
        toks[j + 1].text == "(") {
      // Skip keywords that can follow a type (e.g. `Status operator=`).
      if (toks[j].text == "operator") continue;
      status_fns->insert(toks[j].text);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule context and helpers.
// ---------------------------------------------------------------------------

struct FileContext {
  std::string display_path;  // as reported in diagnostics
  bool deterministic_scope = false;  // src/core, src/sql, src/index
  bool allow_raw_thread = false;     // common/scheduler.{h,cc}
  bool allow_reinterpret = false;    // index/snapshot.cc, index/codec.cc
  bool checked_value_scope = false;  // non-test code: .value() needs a guard
  bool allow_hot_clock = false;      // telemetry/timer/control: the clock owners
  bool raw_stdio_scope = false;      // library code under src/
};

bool Allowed(const LexedFile& lf, int line, const std::string& rule) {
  const auto it = lf.allows.find(line);
  if (it == lf.allows.end()) return false;
  return it->second.count(rule) != 0 || it->second.count("all") != 0;
}

void Report(const FileContext& ctx, const LexedFile& lf, int line,
            const std::string& rule, const std::string& message,
            std::vector<Violation>* out) {
  if (Allowed(lf, line, rule)) return;
  out->push_back({ctx.display_path, line, rule, message});
}

bool IsStatementStart(const std::vector<Token>& toks, size_t i) {
  if (i == 0) return true;
  const std::string& prev = toks[i - 1].text;
  return prev == ";" || prev == "{" || prev == "}" || prev == "else" ||
         prev == "do" || prev == ")";
}

// ---------------------------------------------------------------------------
// Rules.
// ---------------------------------------------------------------------------

/// Names declared with return type `void` in the given token stream. A name
/// that is both a Status-returning API somewhere and a local void function
/// (e.g. Scheduler::Execute vs. sql::Executor::Execute) must not be flagged
/// where the void declaration is in scope.
void CollectVoidFunctions(const std::vector<Token>& toks,
                          std::set<std::string>* void_fns) {
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].text != "void") continue;
    if (i > 0 && (toks[i - 1].text == "(" || toks[i - 1].text == "<" ||
                  toks[i - 1].text == ",")) {
      continue;  // a cast or template/parameter type, not a declaration
    }
    if (IsIdentStart(toks[i + 1].text[0]) && toks[i + 2].text == "(") {
      void_fns->insert(toks[i + 1].text);
    }
  }
}

void RuleIgnoredStatus(const FileContext& ctx, const LexedFile& lf,
                       const std::set<std::string>& status_fns,
                       const std::vector<Token>& header_toks,
                       std::vector<Violation>* out) {
  std::set<std::string> void_fns;
  CollectVoidFunctions(lf.tokens, &void_fns);
  CollectVoidFunctions(header_toks, &void_fns);
  const auto& toks = lf.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsStatementStart(toks, i)) continue;
    size_t j = i;
    bool void_cast = false;
    if (j + 2 < toks.size() && toks[j].text == "(" &&
        toks[j + 1].text == "void" && toks[j + 2].text == ")") {
      void_cast = true;
      j += 3;
    }
    // Parse a call chain: ident ((:: | . | ->) ident)* '(' ... ')' ';'
    if (j >= toks.size() || !IsIdentStart(toks[j].text[0])) continue;
    std::string last_name = toks[j].text;
    size_t k = j + 1;
    while (k + 1 < toks.size() &&
           (toks[k].text == "::" || toks[k].text == "." ||
            toks[k].text == "->") &&
           IsIdentStart(toks[k + 1].text[0])) {
      last_name = toks[k + 1].text;
      k += 2;
    }
    if (k >= toks.size() || toks[k].text != "(") continue;
    const size_t after = SkipBalanced(toks, k, "(", ")");
    if (after >= toks.size() || toks[after].text != ";") continue;
    // The whole statement is consumed either way, so the callee of a
    // `(void)Foo(...)` is not re-parsed as a second bare statement.
    i = after;
    if (status_fns.count(last_name) == 0) continue;
    if (void_fns.count(last_name) != 0) continue;
    Report(ctx, lf, toks[j].line, "ignored-status",
           void_cast
               ? "'(void)' discards the Status returned by '" + last_name +
                     "()'; handle it or annotate the line"
               : "result of status-returning '" + last_name +
                     "()' is ignored",
           out);
  }
}

void RuleRawThread(const FileContext& ctx, const LexedFile& lf,
                   std::vector<Violation>* out) {
  if (ctx.allow_raw_thread) return;
  const auto& toks = lf.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].text != "std" || toks[i + 1].text != "::") continue;
    const std::string& name = toks[i + 2].text;
    if (name != "thread" && name != "jthread" && name != "async") continue;
    // std::thread::hardware_concurrency is a pure query, not a spawn.
    if (name == "thread" && i + 4 < toks.size() && toks[i + 3].text == "::" &&
        toks[i + 4].text == "hardware_concurrency") {
      continue;
    }
    Report(ctx, lf, toks[i].line, "raw-thread",
           "std::" + name + " outside common/scheduler.{h,cc}; use the shared "
           "Scheduler so parallel work stays deterministic and TSan-covered",
           out);
  }
}

void RuleNondeterminism(const FileContext& ctx, const LexedFile& lf,
                        std::vector<Violation>* out) {
  if (!ctx.deterministic_scope) return;
  const auto& toks = lf.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    const std::string prev = i > 0 ? toks[i - 1].text : "";
    const std::string next = i + 1 < toks.size() ? toks[i + 1].text : "";
    const bool member_access = prev == "." || prev == "->";
    const bool std_qualified =
        prev == "::" && i >= 2 && toks[i - 2].text == "std";
    // A preceding type name means this is the declaration of a like-named
    // member (e.g. `int time() const`), not a call of the libc function.
    const bool declaration =
        !prev.empty() && IsIdentStart(prev[0]) && prev != "return" &&
        prev != "else" && prev != "do" && prev != "case" && prev != "co_return";
    if ((t == "rand" || t == "srand" || t == "time" || t == "clock") &&
        next == "(" && !member_access && !declaration &&
        (prev != "::" || std_qualified)) {
      Report(ctx, lf, toks[i].line, "nondeterminism",
             "'" + t + "()' in a deterministic query/index path; results "
             "must be a pure function of the index content",
             out);
    }
    if ((t == "random_device" || t == "system_clock") && !member_access &&
        (prev != "::" || std_qualified ||
         (i >= 2 && toks[i - 2].text == "chrono"))) {
      Report(ctx, lf, toks[i].line, "nondeterminism",
             "'" + t + "' in a deterministic query/index path", out);
    }
  }
}

void RuleUnorderedIter(const FileContext& ctx, const LexedFile& lf,
                       const std::vector<Token>& decl_toks,
                       std::vector<Violation>* out) {
  if (!ctx.deterministic_scope) return;
  // Identifiers declared with std::unordered_map / std::unordered_set in this
  // file or its companion header.
  std::set<std::string> unordered_vars;
  auto collect = [&unordered_vars](const std::vector<Token>& toks) {
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      const std::string& t = toks[i].text;
      if (t != "unordered_map" && t != "unordered_set" &&
          t != "unordered_multimap" && t != "unordered_multiset") {
        continue;
      }
      if (i < 2 || toks[i - 1].text != "::" || toks[i - 2].text != "std") {
        continue;
      }
      if (toks[i + 1].text != "<") continue;
      size_t j = SkipBalanced(toks, i + 1, "<", ">");
      while (j < toks.size() &&
             (toks[j].text == "&" || toks[j].text == "*")) {
        ++j;
      }
      if (j < toks.size() && IsIdentStart(toks[j].text[0])) {
        unordered_vars.insert(toks[j].text);
      }
    }
  };
  collect(decl_toks);
  collect(lf.tokens);

  const auto& toks = lf.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "for" || toks[i + 1].text != "(") continue;
    const size_t close = SkipBalanced(toks, i + 1, "(", ")");
    // Find the range-for ':' at paren depth 1.
    int depth = 0;
    size_t colon = 0;
    for (size_t j = i + 1; j < close; ++j) {
      if (toks[j].text == "(" || toks[j].text == "[" || toks[j].text == "{") {
        ++depth;
      } else if (toks[j].text == ")" || toks[j].text == "]" ||
                 toks[j].text == "}") {
        --depth;
      } else if (toks[j].text == ":" && depth == 1) {
        colon = j;
        break;
      }
    }
    if (colon == 0) continue;
    // Range expression: the last identifier of the chain before ')'.
    std::string last_ident;
    bool simple = true;
    for (size_t j = colon + 1; j + 1 < close; ++j) {
      const std::string& t = toks[j].text;
      if (IsIdentStart(t[0])) {
        last_ident = t;
      } else if (t != "." && t != "->" && t != "::" && t != "*" && t != "&") {
        simple = false;  // calls, indexing, casts: out of pattern
        break;
      }
    }
    if (!simple || last_ident.empty()) continue;
    if (unordered_vars.count(last_ident) == 0) continue;
    Report(ctx, lf, toks[i].line, "unordered-iter",
           "iteration over unordered container '" + last_ident +
               "' in a deterministic path; hash-table order is "
               "implementation-defined (sort the results or annotate)",
           out);
  }
}

void RuleUncheckedValue(const FileContext& ctx, const LexedFile& lf,
                        std::vector<Violation>* out) {
  if (!ctx.checked_value_scope) return;
  const auto& toks = lf.tokens;
  for (size_t i = 1; i + 1 < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t != "value" && t != "ValueOrDie") continue;
    const std::string& prev = toks[i - 1].text;
    if (prev != "." && prev != "->") continue;
    if (toks[i + 1].text != "(") continue;
    // A same-statement guard proves the access: an ok() member call (the
    // `a.ok() && a.value()` / `if (!a.ok() || ...)` idioms) or a BLEND_CHECK
    // wrapping the whole expression. `;`/`{`/`}` bound the statement.
    bool guarded = false;
    for (size_t j = i; j-- > 0;) {
      const std::string& b = toks[j].text;
      if (b == ";" || b == "{" || b == "}") break;
      if ((b == "ok" && j > 0 &&
           (toks[j - 1].text == "." || toks[j - 1].text == "->")) ||
          b == "BLEND_CHECK") {
        guarded = true;
        break;
      }
    }
    if (guarded) continue;
    Report(ctx, lf, toks[i].line, "unchecked-value",
           "'" + t + "()' on a Result without a same-statement ok() check or "
           "BLEND_CHECK; an error Status here aborts with no diagnostic "
           "context (branch on ok(), prove it with BLEND_CHECK, or annotate)",
           out);
  }
}

void RuleHotClock(const FileContext& ctx, const LexedFile& lf,
                  std::vector<Violation>* out) {
  if (!ctx.deterministic_scope || ctx.allow_hot_clock) return;
  const auto& toks = lf.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t != "steady_clock" && t != "high_resolution_clock") continue;
    // Only a now() call is a clock read; the bare type name (time_point
    // declarations, template arguments) costs nothing at runtime.
    if (toks[i + 1].text != "::" || toks[i + 2].text != "now") continue;
    if (i + 3 >= toks.size() || toks[i + 3].text != "(") continue;
    Report(ctx, lf, toks[i].line, "hot-clock",
           "'" + t + "::now()' in a query/index hot path; time through the "
           "telemetry layer (TraceSpan, LatencyTimer, StopWatch) so clock "
           "reads stay centrally accounted",
           out);
  }
}

void RuleNoRawStdio(const FileContext& ctx, const LexedFile& lf,
                    std::vector<Violation>* out) {
  if (!ctx.raw_stdio_scope) return;
  const auto& toks = lf.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    const std::string prev = i > 0 ? toks[i - 1].text : "";
    const std::string next = i + 1 < toks.size() ? toks[i + 1].text : "";
    const bool std_qualified =
        prev == "::" && i >= 2 && toks[i - 2].text == "std";
    if (t == "cout" || t == "cerr") {
      // Only the std streams; a member or local named cout/cerr is fine.
      if (!std_qualified) continue;
      Report(ctx, lf, toks[i].line, "no-raw-stdio",
             "std::" + t + " in library code; return a Status or a rendered "
             "string and let the tools/examples own the terminal",
             out);
      continue;
    }
    if (t == "printf" || t == "fprintf" || t == "sprintf" ||
        t == "snprintf" || t == "puts" || t == "putchar" || t == "fputs") {
      if (next != "(") continue;
      const bool member_access = prev == "." || prev == "->";
      // A preceding identifier is a declaration of a like-named member, not a
      // call of the libc function.
      const bool declaration =
          !prev.empty() && IsIdentStart(prev[0]) && prev != "return" &&
          prev != "else" && prev != "do" && prev != "case";
      if (member_access || declaration) continue;
      if (prev == "::" && !std_qualified) continue;  // some_ns::printf
      Report(ctx, lf, toks[i].line, "no-raw-stdio",
             "'" + t + "()' in library code; format into a std::string (or "
             "report through Status) instead of writing to stdio",
             out);
    }
  }
}

void RuleUncheckedCast(const FileContext& ctx, const LexedFile& lf,
                       std::vector<Violation>* out) {
  if (ctx.allow_reinterpret) return;
  for (const Token& t : lf.tokens) {
    if (t.text != "reinterpret_cast") continue;
    Report(ctx, lf, t.line, "unchecked-cast",
           "reinterpret_cast outside index/snapshot.cc / index/codec.cc; "
           "byte-level reinterpretation must sit behind validated loaders",
           out);
  }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

bool ReadFileToString(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

FileContext MakeContext(const fs::path& path, bool fixture_mode) {
  FileContext ctx;
  ctx.display_path = path.generic_string();
  const std::string p = ctx.display_path;
  const std::string base = path.filename().string();
  if (fixture_mode) {
    ctx.deterministic_scope = true;
    ctx.checked_value_scope = true;
    ctx.raw_stdio_scope = true;
    return ctx;
  }
  ctx.deterministic_scope = p.find("/core/") != std::string::npos ||
                            p.find("/sql/") != std::string::npos ||
                            p.find("/index/") != std::string::npos;
  ctx.allow_raw_thread = p.find("common/scheduler.") != std::string::npos;
  ctx.allow_reinterpret =
      p.find("/index/") != std::string::npos &&
      (base == "snapshot.cc" || base == "codec.cc");
  ctx.checked_value_scope = p.find("/tests/") == std::string::npos &&
                            base.find("_test.") == std::string::npos;
  ctx.allow_hot_clock = base.rfind("telemetry.", 0) == 0 ||
                        base.rfind("timer.", 0) == 0 ||
                        base.rfind("control.", 0) == 0;
  // Library scope: src/ only. tools/, examples/, bench/, tests/ are entry
  // points (or test code) that legitimately own the process's stdio.
  ctx.raw_stdio_scope =
      p.rfind("src/", 0) == 0 || p.find("/src/") != std::string::npos;
  return ctx;
}

void LintFile(const fs::path& path, const std::string& src,
              const std::set<std::string>& status_fns,
              const std::vector<Token>& header_toks, bool fixture_mode,
              std::vector<Violation>* out) {
  const LexedFile lf = Lex(src);
  const FileContext ctx = MakeContext(path, fixture_mode);
  RuleIgnoredStatus(ctx, lf, status_fns, header_toks, out);
  RuleRawThread(ctx, lf, out);
  RuleNondeterminism(ctx, lf, out);
  RuleUnorderedIter(ctx, lf, header_toks, out);
  RuleUncheckedValue(ctx, lf, out);
  RuleHotClock(ctx, lf, out);
  RuleNoRawStdio(ctx, lf, out);
  RuleUncheckedCast(ctx, lf, out);
}

std::vector<fs::path> CollectSources(const std::vector<std::string>& args) {
  std::vector<fs::path> files;
  for (const std::string& a : args) {
    const fs::path p(a);
    if (fs::is_directory(p)) {
      for (const auto& e : fs::recursive_directory_iterator(p)) {
        if (!e.is_regular_file()) continue;
        const std::string ext = e.path().extension().string();
        if (ext == ".cc" || ext == ".h") files.push_back(e.path());
      }
    } else if (fs::is_regular_file(p)) {
      files.push_back(p);
    } else {
      std::fprintf(stderr, "blend_lint: no such file or directory: %s\n",
                   a.c_str());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

int RunLint(const std::vector<std::string>& roots) {
  const std::vector<fs::path> files = CollectSources(roots);
  if (files.empty()) {
    std::fprintf(stderr, "blend_lint: nothing to lint\n");
    return 2;
  }

  // Pass 1: status-returning function names across the whole tree, plus the
  // token stream of each header (companion-header declarations feed the
  // unordered-iter rule for the matching .cc).
  std::set<std::string> status_fns;
  std::map<std::string, std::vector<Token>> header_tokens;  // by stem
  std::map<std::string, std::string> contents;
  for (const fs::path& f : files) {
    std::string src;
    if (!ReadFileToString(f, &src)) {
      std::fprintf(stderr, "blend_lint: cannot read %s\n",
                   f.generic_string().c_str());
      return 2;
    }
    const LexedFile lf = Lex(src);
    CollectStatusFunctions(lf.tokens, &status_fns);
    if (f.extension() == ".h") {
      header_tokens[(f.parent_path() / f.stem()).generic_string()] = lf.tokens;
    }
    contents.emplace(f.generic_string(), std::move(src));
  }

  // Pass 2: the rules.
  std::vector<Violation> violations;
  static const std::vector<Token> kNoTokens;
  for (const fs::path& f : files) {
    const auto stem = (f.parent_path() / f.stem()).generic_string();
    const auto hit = header_tokens.find(stem);
    const std::vector<Token>& htoks =
        (f.extension() == ".cc" && hit != header_tokens.end()) ? hit->second
                                                               : kNoTokens;
    LintFile(f, contents.at(f.generic_string()), status_fns, htoks,
             /*fixture_mode=*/false, &violations);
  }

  std::sort(violations.begin(), violations.end());
  for (const Violation& v : violations) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", v.file.c_str(), v.line,
                 v.rule.c_str(), v.message.c_str());
  }
  if (!violations.empty()) {
    std::fprintf(stderr,
                 "blend_lint: %zu violation(s). Suppress a deliberate one "
                 "with '// blend-lint: allow(<rule>)'.\n",
                 violations.size());
    return 1;
  }
  return 0;
}

int RunSelfTest(const std::string& fixtures_dir) {
  const std::vector<fs::path> files = CollectSources({fixtures_dir});
  if (files.empty()) {
    std::fprintf(stderr, "blend_lint: no fixtures under %s\n",
                 fixtures_dir.c_str());
    return 2;
  }
  int failures = 0;
  std::set<std::string> rules_fired;
  for (const fs::path& f : files) {
    std::string src;
    if (!ReadFileToString(f, &src)) {
      std::fprintf(stderr, "blend_lint: cannot read %s\n",
                   f.generic_string().c_str());
      return 2;
    }
    const LexedFile lf = Lex(src);
    std::set<std::string> status_fns;
    CollectStatusFunctions(lf.tokens, &status_fns);
    std::vector<Violation> got;
    LintFile(f, src, status_fns, {}, /*fixture_mode=*/true, &got);

    std::set<std::pair<int, std::string>> actual;
    for (const Violation& v : got) {
      actual.insert({v.line, v.rule});
      rules_fired.insert(v.rule);
    }
    std::set<std::pair<int, std::string>> expected;
    for (const auto& [line, rules] : lf.expects) {
      for (const std::string& r : rules) expected.insert({line, r});
    }
    for (const auto& [line, rule] : expected) {
      if (actual.count({line, rule}) == 0) {
        std::fprintf(stderr, "SELF-TEST FAIL %s:%d: expected [%s], not fired\n",
                     f.generic_string().c_str(), line, rule.c_str());
        ++failures;
      }
    }
    for (const auto& [line, rule] : actual) {
      if (expected.count({line, rule}) == 0) {
        std::fprintf(stderr,
                     "SELF-TEST FAIL %s:%d: unexpected [%s] violation\n",
                     f.generic_string().c_str(), line, rule.c_str());
        ++failures;
      }
    }
  }
  // Every rule must be exercised by at least one known-bad fixture, so a
  // rule that silently stops matching cannot pass the self-test.
  for (const char* rule : {"ignored-status", "raw-thread", "nondeterminism",
                           "unordered-iter", "unchecked-value",
                           "unchecked-cast", "hot-clock", "no-raw-stdio"}) {
    if (rules_fired.count(rule) == 0) {
      std::fprintf(stderr, "SELF-TEST FAIL: no fixture exercises [%s]\n", rule);
      ++failures;
    }
  }
  if (failures != 0) {
    std::fprintf(stderr, "blend_lint --self-test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("blend_lint --self-test: all fixtures pass\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 2 && args[0] == "--self-test") {
    return RunSelfTest(args[1]);
  }
  if (!args.empty() && args[0] == "--self-test") {
    std::fprintf(stderr, "usage: blend_lint --self-test <fixtures-dir>\n");
    return 2;
  }
  if (args.empty()) {
    std::fprintf(stderr,
                 "usage: blend_lint <dir|file>...\n"
                 "       blend_lint --self-test <fixtures-dir>\n");
    return 2;
  }
  return RunLint(args);
}
