#include "core/query.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace qdv {

namespace {
const char* op_text(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
    case CompareOp::kEq: return "==";
  }
  return "?";
}
}  // namespace

std::string format_double(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "0";
  return std::string(buf, ptr);
}

bool parse_size(const std::string& text, std::size_t& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  // from_chars rejects signs, spaces, locale forms, and overflow on its
  // own; ptr == end additionally rejects trailing garbage ("5junk", "1e3").
  return ec == std::errc{} && ptr == end;
}

bool parse_double(const std::string& text, double& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  // from_chars accepts the "inf"/"nan" spellings, but no numeric field is
  // meaningfully non-finite (viewports, deadlines, domains) — reject them.
  return ec == std::errc{} && ptr == end && std::isfinite(out);
}

Interval interval_for(CompareOp op, double value) {
  switch (op) {
    case CompareOp::kLt: return Interval::less_than(value);
    case CompareOp::kLe: return Interval::at_most(value);
    case CompareOp::kGt: return Interval::greater_than(value);
    case CompareOp::kGe: return Interval::at_least(value);
    case CompareOp::kEq: return Interval{value, value, false, false};
  }
  throw std::logic_error("interval_for: bad op");
}

std::string CompareQuery::to_string() const {
  return variable_ + ' ' + op_text(op_) + ' ' + format_double(value_);
}

std::string IntervalQuery::to_string() const {
  const char* opl = interval_.lo_open ? ">" : ">=";
  const char* oph = interval_.hi_open ? "<" : "<=";
  if (!interval_.bounded_below() && interval_.bounded_above())
    return variable_ + ' ' + oph + ' ' + format_double(interval_.hi);
  if (interval_.bounded_below() && !interval_.bounded_above())
    return variable_ + ' ' + opl + ' ' + format_double(interval_.lo);
  return "(" + variable_ + ' ' + opl + ' ' + format_double(interval_.lo) +
         " && " + variable_ + ' ' + oph + ' ' + format_double(interval_.hi) + ")";
}

IdInQuery::IdInQuery(std::string variable, std::vector<std::uint64_t> ids)
    : variable_(std::move(variable)), ids_(std::move(ids)) {
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  // The search set is folded into the text form as an FNV-1a digest so the
  // string is usable as a semantic cache key (two different id sets of the
  // same size must not collide). Fixed here: ids_ is immutable from now on,
  // and to_string() runs on every cache lookup.
  digest_ = 14695981039346656037ull;
  for (const std::uint64_t id : ids_)
    for (int byte = 0; byte < 8; ++byte) {
      digest_ ^= (id >> (8 * byte)) & 0xffu;
      digest_ *= 1099511628211ull;
    }
}

std::string IdInQuery::to_string() const {
  std::ostringstream out;
  out << variable_ << " IN (" << ids_.size() << " ids #" << std::hex << digest_
      << ")";
  return out.str();
}

std::string AndQuery::to_string() const {
  return "(" + a_->to_string() + " && " + b_->to_string() + ")";
}

std::string OrQuery::to_string() const {
  return "(" + a_->to_string() + " || " + b_->to_string() + ")";
}

std::string NotQuery::to_string() const { return "!(" + a_->to_string() + ")"; }

QueryPtr Query::compare(std::string variable, CompareOp op, double value) {
  return std::make_shared<CompareQuery>(std::move(variable), op, value);
}

QueryPtr Query::interval(std::string variable, Interval iv) {
  return std::make_shared<IntervalQuery>(std::move(variable), iv);
}

QueryPtr Query::id_in(std::string variable, std::vector<std::uint64_t> ids) {
  return std::make_shared<IdInQuery>(std::move(variable), std::move(ids));
}

QueryPtr Query::land(QueryPtr a, QueryPtr b) {
  return std::make_shared<AndQuery>(std::move(a), std::move(b));
}

QueryPtr Query::lor(QueryPtr a, QueryPtr b) {
  return std::make_shared<OrQuery>(std::move(a), std::move(b));
}

QueryPtr Query::lnot(QueryPtr a) { return std::make_shared<NotQuery>(std::move(a)); }

namespace {

/// Recursive-descent parser over the expression grammar:
///   expr    := andExpr ( '||' andExpr )*
///   andExpr := unary ( '&&' unary )*
///   unary   := '!' unary | '(' expr ')' | comparison
///   comparison := identifier op number
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  QueryPtr parse() {
    QueryPtr q = parse_or();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing input");
    return q;
  }

 private:
  QueryPtr parse_or() {
    QueryPtr lhs = parse_and();
    while (consume("||")) lhs = Query::lor(std::move(lhs), parse_and());
    return lhs;
  }

  QueryPtr parse_and() {
    QueryPtr lhs = parse_unary();
    while (consume("&&")) lhs = Query::land(std::move(lhs), parse_unary());
    return lhs;
  }

  QueryPtr parse_unary() {
    skip_ws();
    if (consume("!")) return Query::lnot(parse_unary());
    if (consume("(")) {
      QueryPtr inner = parse_or();
      if (!consume(")")) fail("expected ')'");
      return inner;
    }
    return parse_comparison();
  }

  QueryPtr parse_comparison() {
    const std::string var = parse_identifier();
    skip_ws();
    CompareOp op;
    if (consume("<=")) {
      op = CompareOp::kLe;
    } else if (consume(">=")) {
      op = CompareOp::kGe;
    } else if (consume("==")) {
      op = CompareOp::kEq;
    } else if (consume("<")) {
      op = CompareOp::kLt;
    } else if (consume(">")) {
      op = CompareOp::kGt;
    } else {
      fail("expected comparison operator");
      return nullptr;  // unreachable
    }
    return Query::compare(var, op, parse_number());
  }

  std::string parse_identifier() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_'))
      ++pos_;
    if (pos_ == start) fail("expected variable name");
    return text_.substr(start, pos_ - start);
  }

  double parse_number() {
    skip_ws();
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    double value = 0.0;
    const auto [next, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{}) fail("expected number");
    pos_ += static_cast<std::size_t>(next - begin);
    return value;
  }

  bool consume(const std::string& token) {
    skip_ws();
    if (text_.compare(pos_, token.size(), token) != 0) return false;
    // Don't let "<" swallow the prefix of "<=" at call sites ordered
    // longest-first; ordering in parse_comparison handles that.
    pos_ += token.size();
    return true;
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  [[noreturn]] void fail(const std::string& what) {
    throw std::invalid_argument("parse_query: " + what + " at position " +
                                std::to_string(pos_) + " in \"" + text_ + "\"");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

QueryPtr parse_query(const std::string& text) { return Parser(text).parse(); }

}  // namespace qdv
