// A one-dimensional range condition with optional open/closed endpoints —
// the common currency between the query AST, the planner's fused interval
// predicates, the bitmap index probe and the interval scan.
#pragma once

#include <limits>

namespace qdv {

/// A one-dimensional range condition with optional open/closed endpoints.
struct Interval {
  double lo;
  double hi;
  bool lo_open = true;  // lo excluded from the interval
  bool hi_open = true;  // hi excluded from the interval

  static Interval greater_than(double v);
  static Interval at_least(double v);
  static Interval less_than(double v);
  static Interval at_most(double v);
  /// [lo, hi)
  static Interval between(double lo, double hi);
  /// (-inf, +inf): matches every finite value.
  static Interval everything();

  bool contains(double x) const {
    return (lo_open ? x > lo : x >= lo) && (hi_open ? x < hi : x <= hi);
  }

  /// True when no value can satisfy the interval — also when a bound is
  /// NaN, since no value compares true against NaN.
  bool empty() const {
    if (!(lo <= hi)) return true;
    return lo == hi && (lo_open || hi_open);
  }

  /// A NaN bound counts as a bound: it must survive into the text form.
  bool bounded_below() const {
    return lo != -std::numeric_limits<double>::infinity();
  }
  bool bounded_above() const {
    return hi != std::numeric_limits<double>::infinity();
  }

  bool operator==(const Interval& other) const = default;
};

/// Intersection of two intervals: the tightest bound wins on each side (an
/// open endpoint beats a closed one at the same value, and a NaN bound,
/// which no value satisfies, beats every other). The result may be empty()
/// — callers decide how to represent contradictions.
Interval intersect(const Interval& a, const Interval& b);

}  // namespace qdv
