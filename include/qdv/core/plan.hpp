// Query planner: the middle stage of the parse -> canonicalize -> plan ->
// execute -> cache pipeline (DESIGN.md Section 8).
//
// canonicalize() rewrites an AST into a normal form whose to_string() is a
// stable semantic cache key: NOT is pushed down to the leaves via De Morgan,
// nested And/Or chains are flattened, conjoined comparisons on one variable
// are fused into a single IntervalQuery (one index probe instead of one per
// comparison), duplicate operands are dropped, and operand lists are sorted.
// plan_query() then builds the plan's tree once: And/Or/Not nodes over step
// leaves, where a step is what a table answers in one call (a range step:
// a leaf, or a same-variable Or of range leaves; or an id step). The
// plan's evaluate() is the executor: it runs that tree, so the steps
// explain() lists are the calls a query makes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bitmap/bitvector.hpp"
#include "bitmap/interval.hpp"
#include "core/query.hpp"

namespace qdv::io {
class MemoryBudget;
class TimestepTable;
}  // namespace qdv::io

namespace qdv::core {

/// Normal form of @p query (see file comment). nullptr stays nullptr (the
/// match-everything selection). Two semantically equal conjunction trees —
/// up to operand order, associativity, double negation, and comparison
/// fusion — canonicalize to ASTs with identical to_string().
///
/// The rewrite assumes column values are totally ordered: flipping a
/// comparison under NOT (`!(x < v)` -> `x >= v`) is an identity only for
/// non-NaN data and a non-NaN constant. A NaN constant keeps its explicit
/// NOT. The generator writes no NaN data (and index builders bin NaN rows
/// outside every bin), so the data side holds for generated datasets.
QueryPtr canonicalize(const QueryPtr& query);

/// The cache key of a canonical query: its to_string(), which is stable,
/// deterministic, and content-complete (IdIn sets are digest-tagged).
std::string cache_key(const Query& canonical_query);

/// How one leaf predicate of a plan will be answered.
enum class AccessPath {
  kBitmapIndex,  // two-step bitmap-index probe (interval evaluation)
  kIdIndex,      // sorted id-index lookup
  kScan,         // sequential scan of the raw column
  kConstant,     // contradiction folded at plan time (empty interval)
  kPyramid,      // histogram-pyramid node classification (zoom routing only)
};

/// One step of a plan: what a table answers in one call. A range step —
/// a Compare or Interval leaf, or an Or of such leaves on one variable —
/// is one TimestepTable::range call over the union of its intervals
/// (DESIGN.md Section 3); an id step is one TimestepTable::id_in call.
struct PredicateStep {
  std::string predicate;  // canonical text of the leaf (or the Or)
  std::string variable;
  AccessPath access = AccessPath::kScan;
  bool fused = false;     // true when the leaf is a fused IntervalQuery
  /// A range step's non-empty intervals (empty for an id step, and for a
  /// contradiction folded to kConstant, which no table call answers).
  std::vector<Interval> intervals;
  /// An id step's search set, sorted and deduplicated.
  std::vector<std::uint64_t> ids;
  // True when the index exists on disk but was quarantined after failing a
  // checksum (DESIGN.md §15): the step planned kScan as a demotion, not
  // because no index was built. Plans cached before the quarantine keep
  // their index steps — the table demotes those at run time.
  bool demoted = false;
};

/// The executable shape of one canonical query. Immutable after
/// plan_query() builds it — safe to read concurrently — and shared
/// (shared_ptr<const ExecutionPlan>) by every Selection handle built from
/// the same query text; it owns its canonical AST and outlives the Engine
/// that planned it.
class ExecutionPlan {
 public:
  ExecutionPlan() = default;

  const QueryPtr& canonical() const { return canonical_; }
  const std::string& key() const { return key_; }
  const std::vector<PredicateStep>& steps() const { return steps_; }

  /// Distinct variables the plan touches (leaf order, deduplicated) — what
  /// an executor must load and a prefetcher should read ahead.
  std::vector<std::string> variables() const;

  /// When the canonical query is a pure conjunction of single-variable
  /// range leaves (Compare/Interval under And — the pyramid-servable
  /// shape), the per-variable intersected condition intervals; nullopt for
  /// anything with Or/Not/IdIn. The match-everything plan is an empty
  /// vector. Decided once at plan time: Selection::zoom_histogram* routes
  /// to the pyramid tier only when this is set.
  const std::optional<std::vector<std::pair<std::string, Interval>>>&
  marginal_intervals() const {
    return marginal_;
  }

  /// Zoom routing per marginal condition variable: kPyramid when the probe
  /// found a `.pyr` next to the column (assumed present without a probe),
  /// kScan otherwise. Empty when marginal_intervals() is nullopt or empty.
  const std::vector<PredicateStep>& zoom_steps() const { return zoom_steps_; }

  /// The rows the plan selects at @p table under @p mode: every step is
  /// one call of the table (TimestepTable::range or id_in) and the plan's
  /// And/Or/Not nodes combine their answers; the match-everything plan
  /// selects every row. Given @p cache, every node is looked up there
  /// first and stored there after (ResidentClass::kBitVector) under
  /// @p key_prefix followed by its canonical text — the root's is key() —
  /// so a refined plan reuses the nodes it shares with its parent.
  std::shared_ptr<const BitVector> evaluate(const io::TimestepTable& table,
                                            EvalMode mode,
                                            io::MemoryBudget* cache = nullptr,
                                            const std::string& key_prefix = {}) const;

  /// Multi-line report: canonical query, cache key, the access path of
  /// every step, and the zoom-tier routing decision. Given @p table, each
  /// range step also reports the probe-or-scan choice evaluate() makes
  /// there under @p mode (TimestepTable::range_step): the compressed words
  /// a probe reads, the rows a scan reads, and the path taken. Pricing
  /// reads the segment directories only: explain() pins, charges and
  /// counts no segment.
  std::string explain(const io::TimestepTable* table = nullptr,
                      EvalMode mode = EvalMode::kAuto) const;

 private:
  friend ExecutionPlan plan_query(QueryPtr query, const io::TimestepTable* probe);

  /// One node of the plan's tree. And/Or nodes mirror the canonical AST's
  /// binary nodes, so every node keeps the cache key it had as an AST node.
  struct Node {
    enum class Kind { kAnd, kOr, kNot, kRange, kIdIn } kind;
    std::string text;  // canonical text: the node's cache key
    std::size_t lhs = 0, rhs = 0;  // operand nodes (And/Or both; Not lhs)
    std::size_t step = 0;          // kRange/kIdIn: index into steps_
  };

  /// Appends @p q's node after its operands' nodes; returns its index.
  std::size_t add_node(const Query& q, const io::TimestepTable* probe);
  std::shared_ptr<const BitVector> evaluate_node(
      std::size_t node, const io::TimestepTable& table, EvalMode mode,
      io::MemoryBudget* cache, const std::string& key_prefix) const;

  QueryPtr canonical_;   // nullptr = select everything
  std::string key_;
  std::vector<PredicateStep> steps_;  // the step leaves, in tree order
  std::vector<Node> nodes_;           // operands before parents; root last
  std::optional<std::vector<std::pair<std::string, Interval>>> marginal_;
  std::vector<PredicateStep> zoom_steps_;
};

/// Canonicalize @p query and decide the access path of each leaf. @p probe,
/// when given, is consulted for actual index availability (typically
/// timestep 0 of the dataset; index layout is uniform across timesteps);
/// without a probe the planner assumes indices exist.
ExecutionPlan plan_query(QueryPtr query, const io::TimestepTable* probe = nullptr);

}  // namespace qdv::core
