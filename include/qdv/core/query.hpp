// Boolean multivariate query AST: range comparisons, identifier-set
// membership, and logical connectives, plus a small expression parser for
// strings like "px > 8.872e10 && y > 0".
//
// Ownership: queries are immutable and shared (QueryPtr is a
// shared_ptr<const Query>); subtrees are shared freely between ASTs (e.g.
// by Selection::refine) and live as long as any referencing tree.
// Thread-safety: immutability makes every Query method safe to call
// concurrently. Evaluation is the planner's (core/plan.hpp): a plan runs
// its steps against a timestep table, so the AST stays free of I/O
// dependencies.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bitmap/interval.hpp"

namespace qdv {

enum class CompareOp { kLt, kLe, kGt, kGe, kEq };

/// The Interval matched by `value <op> constant` — the single mapping shared
/// by the planner and the index and scan evaluation paths.
Interval interval_for(CompareOp op, double value);

/// How a query (or histogram) is evaluated against a table.
enum class EvalMode {
  kAuto,   // use bitmap/id indices when available, else scan
  kIndex,  // require indices (throws when missing)
  kScan,   // sequential scan of the raw columns
};

class Query;
using QueryPtr = std::shared_ptr<const Query>;

class Query {
 public:
  enum class Kind { kCompare, kInterval, kIdIn, kAnd, kOr, kNot };

  virtual ~Query() = default;
  virtual Kind kind() const = 0;
  /// Canonical text form. Re-parseable (and round-trip exact, including
  /// double constants) for every node except IdIn, whose text carries a
  /// content hash of the search set instead — to_string() is therefore also
  /// usable as a semantic cache key.
  virtual std::string to_string() const = 0;

  static QueryPtr compare(std::string variable, CompareOp op, double value);
  static QueryPtr interval(std::string variable, Interval iv);
  static QueryPtr id_in(std::string variable, std::vector<std::uint64_t> ids);
  static QueryPtr land(QueryPtr a, QueryPtr b);
  static QueryPtr lor(QueryPtr a, QueryPtr b);
  static QueryPtr lnot(QueryPtr a);
};

/// Shortest decimal form of @p v that parses back to exactly the same
/// double (std::to_chars round-trip guarantee); used by every to_string().
std::string format_double(double v);

/// Strict numeric token parsers (std::from_chars), shared by the wire
/// protocol, qdv_tool's arguments and the dataset's text metadata: the
/// whole token must parse — trailing garbage, signs on sizes, overflow,
/// locale decimal forms, and non-finite doubles all reject.
bool parse_size(const std::string& text, std::size_t& out);
bool parse_double(const std::string& text, double& out);

class CompareQuery final : public Query {
 public:
  CompareQuery(std::string variable, CompareOp op, double value)
      : variable_(std::move(variable)), op_(op), value_(value) {}
  Kind kind() const override { return Kind::kCompare; }
  std::string to_string() const override;
  const std::string& variable() const { return variable_; }
  CompareOp op() const { return op_; }
  double value() const { return value_; }

 private:
  std::string variable_;
  CompareOp op_;
  double value_;
};

/// A fused range predicate `variable in interval`, produced by the planner
/// from conjunctions of comparisons on one variable (e.g. `lo < x && x <= hi`).
/// Evaluates with a single index probe instead of one per comparison.
class IntervalQuery final : public Query {
 public:
  IntervalQuery(std::string variable, Interval iv)
      : variable_(std::move(variable)), interval_(iv) {}
  Kind kind() const override { return Kind::kInterval; }
  std::string to_string() const override;
  const std::string& variable() const { return variable_; }
  const Interval& interval() const { return interval_; }

 private:
  std::string variable_;
  Interval interval_;
};

class IdInQuery final : public Query {
 public:
  IdInQuery(std::string variable, std::vector<std::uint64_t> ids);
  Kind kind() const override { return Kind::kIdIn; }
  std::string to_string() const override;
  const std::string& variable() const { return variable_; }
  /// Sorted, deduplicated search set.
  const std::vector<std::uint64_t>& ids() const { return ids_; }

 private:
  std::string variable_;
  std::vector<std::uint64_t> ids_;
  std::uint64_t digest_ = 0;  // FNV-1a over ids_, fixed at construction
};

class AndQuery final : public Query {
 public:
  AndQuery(QueryPtr a, QueryPtr b) : a_(std::move(a)), b_(std::move(b)) {}
  Kind kind() const override { return Kind::kAnd; }
  std::string to_string() const override;
  const Query& lhs() const { return *a_; }
  const Query& rhs() const { return *b_; }

 private:
  QueryPtr a_, b_;
};

class OrQuery final : public Query {
 public:
  OrQuery(QueryPtr a, QueryPtr b) : a_(std::move(a)), b_(std::move(b)) {}
  Kind kind() const override { return Kind::kOr; }
  std::string to_string() const override;
  const Query& lhs() const { return *a_; }
  const Query& rhs() const { return *b_; }

 private:
  QueryPtr a_, b_;
};

class NotQuery final : public Query {
 public:
  explicit NotQuery(QueryPtr a) : a_(std::move(a)) {}
  Kind kind() const override { return Kind::kNot; }
  std::string to_string() const override;
  const Query& operand() const { return *a_; }

 private:
  QueryPtr a_;
};

/// Parse a range-query expression, e.g. "px > 8.872e10 && (y > 0 || !(x < 1))".
/// Grammar: comparisons `var (<|<=|>|>=|==) number` combined with `&&`, `||`,
/// `!` and parentheses. Throws std::invalid_argument on malformed input.
QueryPtr parse_query(const std::string& text);

}  // namespace qdv
