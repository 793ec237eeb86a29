#include "core/plan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "io/memory_budget.hpp"
#include "io/timestep_table.hpp"

namespace qdv::core {

namespace {

/// De Morgan push-down: returns @p q with every NOT moved onto a leaf, and
/// double negations eliminated. Comparisons absorb the negation by flipping
/// the operator; kEq, IdIn, and two-sided Interval leaves keep an explicit
/// NOT (their complements are not single predicates), and so does a
/// comparison with a
/// NaN constant: `y > nan` matches no row, so its negation matches every
/// row, while the flipped `y <= nan` would again match none.
QueryPtr predicate_for(const std::string& variable, const Interval& iv);

QueryPtr push_not(const Query& q, bool negate) {
  switch (q.kind()) {
    case Query::Kind::kNot:
      return push_not(static_cast<const NotQuery&>(q).operand(), !negate);
    case Query::Kind::kAnd: {
      const auto& aq = static_cast<const AndQuery&>(q);
      QueryPtr lhs = push_not(aq.lhs(), negate);
      QueryPtr rhs = push_not(aq.rhs(), negate);
      return negate ? Query::lor(std::move(lhs), std::move(rhs))
                    : Query::land(std::move(lhs), std::move(rhs));
    }
    case Query::Kind::kOr: {
      const auto& oq = static_cast<const OrQuery&>(q);
      QueryPtr lhs = push_not(oq.lhs(), negate);
      QueryPtr rhs = push_not(oq.rhs(), negate);
      return negate ? Query::land(std::move(lhs), std::move(rhs))
                    : Query::lor(std::move(lhs), std::move(rhs));
    }
    case Query::Kind::kCompare: {
      const auto& cq = static_cast<const CompareQuery&>(q);
      if (!negate) return Query::compare(cq.variable(), cq.op(), cq.value());
      if (std::isnan(cq.value()))
        return Query::lnot(Query::compare(cq.variable(), cq.op(), cq.value()));
      switch (cq.op()) {
        case CompareOp::kLt:
          return Query::compare(cq.variable(), CompareOp::kGe, cq.value());
        case CompareOp::kLe:
          return Query::compare(cq.variable(), CompareOp::kGt, cq.value());
        case CompareOp::kGt:
          return Query::compare(cq.variable(), CompareOp::kLe, cq.value());
        case CompareOp::kGe:
          return Query::compare(cq.variable(), CompareOp::kLt, cq.value());
        case CompareOp::kEq:
          return Query::lnot(Query::compare(cq.variable(), cq.op(), cq.value()));
      }
      throw std::logic_error("push_not: bad compare op");
    }
    case Query::Kind::kInterval: {
      // Tightest form first: a one-sided interval is a comparison and
      // absorbs the negation like one, so canonicalize stays a fixed point.
      const auto& vq = static_cast<const IntervalQuery&>(q);
      QueryPtr leaf = predicate_for(vq.variable(), vq.interval());
      if (leaf->kind() == Query::Kind::kCompare) return push_not(*leaf, negate);
      return negate ? Query::lnot(std::move(leaf)) : leaf;
    }
    case Query::Kind::kIdIn: {
      const auto& iq = static_cast<const IdInQuery&>(q);
      QueryPtr leaf = Query::id_in(iq.variable(), iq.ids());
      return negate ? Query::lnot(std::move(leaf)) : leaf;
    }
  }
  throw std::logic_error("push_not: bad query kind");
}

QueryPtr normalize(const Query& q);

/// Collect the operand list of a maximal same-kind And/Or chain.
void flatten_into(const Query& q, Query::Kind kind, std::vector<QueryPtr>& out) {
  if (q.kind() == kind) {
    if (kind == Query::Kind::kAnd) {
      const auto& aq = static_cast<const AndQuery&>(q);
      flatten_into(aq.lhs(), kind, out);
      flatten_into(aq.rhs(), kind, out);
    } else {
      const auto& oq = static_cast<const OrQuery&>(q);
      flatten_into(oq.lhs(), kind, out);
      flatten_into(oq.rhs(), kind, out);
    }
    return;
  }
  out.push_back(normalize(q));
}

/// The interval matched by a fusable leaf (kCompare or kInterval).
bool fusable_interval(const Query& q, std::string* variable, Interval* iv) {
  if (q.kind() == Query::Kind::kCompare) {
    const auto& cq = static_cast<const CompareQuery&>(q);
    *variable = cq.variable();
    *iv = interval_for(cq.op(), cq.value());
    return true;
  }
  if (q.kind() == Query::Kind::kInterval) {
    const auto& vq = static_cast<const IntervalQuery&>(q);
    *variable = vq.variable();
    *iv = vq.interval();
    return true;
  }
  return false;
}

/// The tightest single-predicate form of a fused interval: a closed point
/// becomes ==, a one-sided bound becomes a plain comparison, a genuine
/// two-sided range stays an IntervalQuery.
QueryPtr predicate_for(const std::string& variable, const Interval& iv) {
  if (iv.empty()) return Query::interval(variable, iv);
  if (iv.bounded_below() && iv.bounded_above()) {
    if (iv.lo == iv.hi && !iv.lo_open && !iv.hi_open)
      return Query::compare(variable, CompareOp::kEq, iv.lo);
    return Query::interval(variable, iv);
  }
  if (iv.bounded_below())
    return Query::compare(variable, iv.lo_open ? CompareOp::kGt : CompareOp::kGe,
                          iv.lo);
  if (iv.bounded_above())
    return Query::compare(variable, iv.hi_open ? CompareOp::kLt : CompareOp::kLe,
                          iv.hi);
  return Query::interval(variable, iv);  // everything; kept, never produced
}

/// Fuse all comparison leaves of an And-operand list that share a variable
/// into one interval predicate each; other operands pass through.
std::vector<QueryPtr> fuse_and_operands(std::vector<QueryPtr> operands) {
  std::vector<QueryPtr> out;
  std::vector<std::string> order;           // first-seen variable order
  std::vector<Interval> merged;             // interval per order[i]
  for (QueryPtr& op : operands) {
    std::string variable;
    Interval iv{};
    if (!fusable_interval(*op, &variable, &iv)) {
      out.push_back(std::move(op));
      continue;
    }
    const auto it = std::find(order.begin(), order.end(), variable);
    if (it == order.end()) {
      order.push_back(variable);
      merged.push_back(iv);
    } else {
      const std::size_t i = static_cast<std::size_t>(it - order.begin());
      merged[i] = intersect(merged[i], iv);
    }
  }
  for (std::size_t i = 0; i < order.size(); ++i)
    out.push_back(predicate_for(order[i], merged[i]));
  return out;
}

/// Sort by canonical text, drop duplicates, and rebuild a left-deep chain.
QueryPtr rebuild(std::vector<QueryPtr> operands, Query::Kind kind) {
  std::vector<std::pair<std::string, QueryPtr>> keyed;
  keyed.reserve(operands.size());
  for (QueryPtr& op : operands) keyed.emplace_back(op->to_string(), std::move(op));
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  keyed.erase(std::unique(keyed.begin(), keyed.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              keyed.end());
  QueryPtr result = std::move(keyed.front().second);
  for (std::size_t i = 1; i < keyed.size(); ++i)
    result = kind == Query::Kind::kAnd
                 ? Query::land(std::move(result), std::move(keyed[i].second))
                 : Query::lor(std::move(result), std::move(keyed[i].second));
  return result;
}

/// Flatten + fuse + sort, bottom-up, over a NOT-pushed tree.
QueryPtr normalize(const Query& q) {
  switch (q.kind()) {
    case Query::Kind::kAnd: {
      std::vector<QueryPtr> operands;
      flatten_into(q, Query::Kind::kAnd, operands);
      return rebuild(fuse_and_operands(std::move(operands)), Query::Kind::kAnd);
    }
    case Query::Kind::kOr: {
      std::vector<QueryPtr> operands;
      flatten_into(q, Query::Kind::kOr, operands);
      return rebuild(std::move(operands), Query::Kind::kOr);
    }
    case Query::Kind::kNot:
      return Query::lnot(normalize(static_cast<const NotQuery&>(q).operand()));
    case Query::Kind::kCompare:
    case Query::Kind::kInterval:
    case Query::Kind::kIdIn: {
      std::string variable;
      Interval iv{};
      // A lone fusable leaf still gets its tightest form (e.g. an interval
      // [v, v] becomes ==), so builders and parsed text converge.
      if (fusable_interval(q, &variable, &iv)) return predicate_for(variable, iv);
      const auto& iq = static_cast<const IdInQuery&>(q);
      return Query::id_in(iq.variable(), iq.ids());
    }
  }
  throw std::logic_error("normalize: bad query kind");
}

const char* access_text(AccessPath access) {
  switch (access) {
    case AccessPath::kBitmapIndex: return "bitmap-index";
    case AccessPath::kIdIndex: return "id-index";
    case AccessPath::kScan: return "scan";
    case AccessPath::kConstant: return "constant-empty";
    case AccessPath::kPyramid: return "pyramid";
  }
  return "?";
}

/// Marginal-conjunction extraction (the pyramid-servable predicate shape):
/// true when @p q is built only from And over Compare/Interval leaves, with
/// the per-variable intersected intervals appended to @p out.
bool collect_marginals(const Query& q,
                       std::vector<std::pair<std::string, Interval>>& out) {
  const auto merge = [&out](const std::string& variable, const Interval& iv) {
    for (auto& [var, merged] : out) {
      if (var == variable) {
        merged = intersect(merged, iv);
        return;
      }
    }
    out.emplace_back(variable, iv);
  };
  switch (q.kind()) {
    case Query::Kind::kAnd: {
      const auto& aq = static_cast<const AndQuery&>(q);
      return collect_marginals(aq.lhs(), out) &&
             collect_marginals(aq.rhs(), out);
    }
    case Query::Kind::kCompare: {
      const auto& cq = static_cast<const CompareQuery&>(q);
      merge(cq.variable(), interval_for(cq.op(), cq.value()));
      return true;
    }
    case Query::Kind::kInterval: {
      const auto& vq = static_cast<const IntervalQuery&>(q);
      merge(vq.variable(), vq.interval());
      return true;
    }
    default:
      return false;  // Or/Not/IdIn: not a marginal conjunction
  }
}

/// The intervals of @p q when it is a Compare or Interval leaf, or an Or
/// tree whose every leaf is one of those on a single variable: the shape
/// one range step answers as a union of intervals (DESIGN.md Section 3).
/// Returns false for any other shape, leaving the outputs unspecified.
/// @p intervals must start empty.
bool interval_union(const Query& q, std::string& variable,
                    std::vector<Interval>& intervals) {
  const auto leaf = [&](const std::string& var, const Interval& iv) {
    if (intervals.empty())
      variable = var;
    else if (var != variable)
      return false;
    intervals.push_back(iv);
    return true;
  };
  switch (q.kind()) {
    case Query::Kind::kCompare: {
      const auto& cq = static_cast<const CompareQuery&>(q);
      return leaf(cq.variable(), interval_for(cq.op(), cq.value()));
    }
    case Query::Kind::kInterval: {
      const auto& vq = static_cast<const IntervalQuery&>(q);
      return leaf(vq.variable(), vq.interval());
    }
    case Query::Kind::kOr: {
      const auto& oq = static_cast<const OrQuery&>(q);
      return interval_union(oq.lhs(), variable, intervals) &&
             interval_union(oq.rhs(), variable, intervals);
    }
    default:
      return false;
  }
}

/// The step of one range predicate — a Compare or Interval leaf, or an Or
/// of such leaves on one variable, which one probe answers as a union.
PredicateStep range_predicate_step(const Query& q, std::string text,
                                   std::string variable,
                                   std::vector<Interval> intervals,
                                   const io::TimestepTable* probe) {
  PredicateStep step;
  step.predicate = std::move(text);
  step.variable = std::move(variable);
  step.fused = q.kind() == Query::Kind::kInterval;
  std::erase_if(intervals, [](const Interval& iv) { return iv.empty(); });
  step.intervals = std::move(intervals);
  if (step.intervals.empty()) {
    step.access = AccessPath::kConstant;
    return step;
  }
  step.demoted = probe && probe->index_quarantined(step.variable);
  step.access = (!step.demoted &&
                 (!probe || probe->has_value_index(step.variable)))
                    ? AccessPath::kBitmapIndex
                    : AccessPath::kScan;
  return step;
}

/// @p compute's answer, first looked up in @p cache under @p key and stored
/// there after; computed afresh when there is no cache.
template <typename Compute>
std::shared_ptr<const BitVector> cached(io::MemoryBudget* cache,
                                        const std::string& key,
                                        Compute&& compute) {
  if (cache)
    if (auto hit = cache->get(key, io::ResidentClass::kBitVector))
      return std::static_pointer_cast<const BitVector>(hit);
  auto bits = std::make_shared<const BitVector>(compute());
  if (cache)
    cache->put(key, bits, bits->memory_bytes(), io::ResidentClass::kBitVector);
  return bits;
}

const char* range_path_text(io::TimestepTable::RangeStep::Path path) {
  switch (path) {
    case io::TimestepTable::RangeStep::Path::kProbe: return "probe";
    case io::TimestepTable::RangeStep::Path::kScan: return "scan";
    case io::TimestepTable::RangeStep::Path::kProbeIfIndexOnly:
      return "probe if its pin finds no candidate row (index-only), else scan";
  }
  return "?";
}

}  // namespace

QueryPtr canonicalize(const QueryPtr& query) {
  if (!query) return nullptr;
  const QueryPtr pushed = push_not(*query, false);
  return normalize(*pushed);
}

std::string cache_key(const Query& canonical_query) {
  return canonical_query.to_string();
}

ExecutionPlan plan_query(QueryPtr query, const io::TimestepTable* probe) {
  ExecutionPlan plan;
  plan.canonical_ = canonicalize(query);
  if (!plan.canonical_) {
    plan.key_ = "<all records>";
    plan.marginal_.emplace();  // unconditioned: trivially pyramid-servable
    return plan;
  }
  plan.key_ = cache_key(*plan.canonical_);
  plan.add_node(*plan.canonical_, probe);
  std::vector<std::pair<std::string, Interval>> marginals;
  if (collect_marginals(*plan.canonical_, marginals)) {
    for (const auto& [variable, iv] : marginals) {
      PredicateStep step;
      step.predicate = predicate_for(variable, iv)->to_string();
      step.variable = variable;
      step.access = (!probe || probe->has_pyramid(variable))
                        ? AccessPath::kPyramid
                        : AccessPath::kScan;
      plan.zoom_steps_.push_back(std::move(step));
    }
    plan.marginal_ = std::move(marginals);
  }
  return plan;
}

std::size_t ExecutionPlan::add_node(const Query& q,
                                    const io::TimestepTable* probe) {
  Node node{Node::Kind::kRange, q.to_string()};
  std::string variable;
  std::vector<Interval> intervals;
  if (interval_union(q, variable, intervals)) {
    node.step = steps_.size();
    steps_.push_back(range_predicate_step(q, node.text, std::move(variable),
                                          std::move(intervals), probe));
  } else if (q.kind() == Query::Kind::kAnd) {
    const auto& aq = static_cast<const AndQuery&>(q);
    node.kind = Node::Kind::kAnd;
    node.lhs = add_node(aq.lhs(), probe);
    node.rhs = add_node(aq.rhs(), probe);
  } else if (q.kind() == Query::Kind::kOr) {  // an Or over variables
    const auto& oq = static_cast<const OrQuery&>(q);
    node.kind = Node::Kind::kOr;
    node.lhs = add_node(oq.lhs(), probe);
    node.rhs = add_node(oq.rhs(), probe);
  } else if (q.kind() == Query::Kind::kNot) {
    node.kind = Node::Kind::kNot;
    node.lhs = add_node(static_cast<const NotQuery&>(q).operand(), probe);
  } else {
    const auto& iq = static_cast<const IdInQuery&>(q);
    node.kind = Node::Kind::kIdIn;
    node.step = steps_.size();
    PredicateStep step;
    step.predicate = node.text;
    step.variable = iq.variable();
    step.ids = iq.ids();
    step.access = (!probe || probe->has_id_index(iq.variable()))
                      ? AccessPath::kIdIndex
                      : AccessPath::kScan;
    steps_.push_back(std::move(step));
  }
  nodes_.push_back(std::move(node));
  return nodes_.size() - 1;
}

std::shared_ptr<const BitVector> ExecutionPlan::evaluate(
    const io::TimestepTable& table, EvalMode mode, io::MemoryBudget* cache,
    const std::string& key_prefix) const {
  if (nodes_.empty())
    return cached(cache, key_prefix + key_,
                  [&] { return BitVector::ones(table.num_rows()); });
  return evaluate_node(nodes_.size() - 1, table, mode, cache, key_prefix);
}

std::shared_ptr<const BitVector> ExecutionPlan::evaluate_node(
    std::size_t index, const io::TimestepTable& table, EvalMode mode,
    io::MemoryBudget* cache, const std::string& key_prefix) const {
  const Node& node = nodes_[index];
  const auto operand = [&](std::size_t i) {
    return evaluate_node(i, table, mode, cache, key_prefix);
  };
  return cached(cache, cache ? key_prefix + node.text : std::string(),
                [&]() -> BitVector {
    switch (node.kind) {
      case Node::Kind::kAnd: {
        const auto lhs = operand(node.lhs);
        return *lhs & *operand(node.rhs);
      }
      case Node::Kind::kOr: {
        const auto lhs = operand(node.lhs);
        return *lhs | *operand(node.rhs);
      }
      case Node::Kind::kNot:
        return ~*operand(node.lhs);
      case Node::Kind::kRange: {
        const PredicateStep& step = steps_[node.step];
        return table.range(step.variable, step.intervals, mode);
      }
      case Node::Kind::kIdIn: {
        const PredicateStep& step = steps_[node.step];
        return table.id_in(step.variable, step.ids, mode);
      }
    }
    throw std::logic_error("ExecutionPlan::evaluate: bad node kind");
  });
}

std::vector<std::string> ExecutionPlan::variables() const {
  std::vector<std::string> out;
  for (const PredicateStep& step : steps_)
    if (std::find(out.begin(), out.end(), step.variable) == out.end())
      out.push_back(step.variable);
  return out;
}

std::string ExecutionPlan::explain(const io::TimestepTable* table,
                                   EvalMode mode) const {
  std::ostringstream out;
  out << "query:     " << (canonical_ ? canonical_->to_string() : "<all records>")
      << "\n";
  out << "cache-key: " << key_ << "\n";
  out << "steps:\n";
  if (steps_.empty()) out << "  (none — every record matches)\n";
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const PredicateStep& step = steps_[i];
    out << "  [" << i << "] " << step.predicate << "  ->  "
        << access_text(step.access) << "(" << step.variable << ")";
    if (step.fused) out << "  [fused interval]";
    if (step.intervals.size() > 1)
      out << "  [union of " << step.intervals.size() << " intervals]";
    if (step.demoted) out << "  [demoted: index quarantined]";
    if (table && !step.intervals.empty()) {
      // The range-step choice evaluate() makes at this timestep, priced
      // from the segment directory alone.
      const io::TimestepTable::RangeStep verdict =
          table->range_step(step.variable, step.intervals, mode);
      out << "\n        t0: probe " << verdict.probe_words << " words, scan "
          << verdict.scan_rows << " rows -> " << range_path_text(verdict.path);
    }
    out << "\n";
  }
  if (marginal_) {
    out << "zoom:      pyramid-servable (marginal conjunction)\n";
    for (std::size_t i = 0; i < zoom_steps_.size(); ++i) {
      const PredicateStep& step = zoom_steps_[i];
      out << "  [z" << i << "] " << step.predicate << "  ->  "
          << access_text(step.access) << "(" << step.variable << ")\n";
    }
  } else {
    out << "zoom:      exact-only (non-marginal predicate)\n";
  }
  return out.str();
}

}  // namespace qdv::core
