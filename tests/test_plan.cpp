// Planner canonicalization: cache-key stability under operand order and
// associativity, De Morgan push-down, interval fusion, and the explain()
// report. Structural checks only (test_engine covers the semantic
// equivalences against real tables), bar one small generated table for the
// range-step verdicts explain() prints.
#include <stdexcept>

#include "core/engine.hpp"
#include "core/plan.hpp"
#include "core/selection.hpp"
#include "sim/wakefield.hpp"
#include "test_common.hpp"

namespace {

using namespace qdv;
using core::canonicalize;
using core::cache_key;
using core::plan_query;

std::string key_of(const char* text) {
  const QueryPtr canonical = canonicalize(parse_query(text));
  CHECK(canonical != nullptr);
  return cache_key(*canonical);
}

void test_operand_order_is_canonical() {
  CHECK_EQ(key_of("a > 1 && b < 2"), key_of("b < 2 && a > 1"));
  CHECK_EQ(key_of("a > 1 || b < 2 || c == 3"), key_of("c == 3 || a > 1 || b < 2"));
}

void test_flattening_is_canonical() {
  CHECK_EQ(key_of("(a > 1 && b < 2) && c > 3"), key_of("a > 1 && (b < 2 && c > 3)"));
  CHECK_EQ(key_of("(a > 1 || b < 2) || c > 3"), key_of("a > 1 || (b < 2 || c > 3)"));
}

void test_duplicates_dropped() {
  CHECK_EQ(key_of("a > 1 && a > 1"), key_of("a > 1"));
  CHECK_EQ(key_of("a > 1 || (a > 1 || a > 1)"), key_of("a > 1"));
}

void test_de_morgan() {
  CHECK_EQ(key_of("!(a > 1 && b <= 2)"), key_of("a <= 1 || b > 2"));
  CHECK_EQ(key_of("!(a > 1 || b <= 2)"), key_of("a <= 1 && b > 2"));
  CHECK_EQ(key_of("!(!(a > 1))"), key_of("a > 1"));
  // Negated equality has no single-predicate complement: NOT stays, pushed
  // onto the leaf.
  const QueryPtr n = canonicalize(parse_query("!(a == 1 && b > 2)"));
  CHECK(n->kind() == Query::Kind::kOr);
}

void test_nan_constants() {
  // `a > nan` matches nothing, so its negation matches everything: the NOT
  // stays (flipping to `a <= nan` would match nothing again). A finite
  // constant still flips.
  CHECK(canonicalize(parse_query("!(a > nan)"))->kind() == Query::Kind::kNot);
  CHECK_EQ(key_of("!(a > 0)"), key_of("a <= 0"));
  // A NaN bound survives fusion and the text form (it used to fuse away,
  // leaving `a < 5`), and the fused leaf is a constant-empty step.
  const QueryPtr fused = canonicalize(parse_query("a < 5 && a > nan"));
  CHECK(fused->kind() == Query::Kind::kInterval);
  CHECK(static_cast<const IntervalQuery&>(*fused).interval().empty());
  CHECK(key_of("a < 5 && a > nan") != key_of("a < 5"));
  CHECK_EQ(key_of(fused->to_string().c_str()), fused->to_string());
  // A one-sided interval leaf under NOT flips like the comparison it is,
  // so a second canonicalization changes nothing.
  const QueryPtr negated = Query::lnot(
      Query::interval("a", Interval::at_least(3.0)));
  CHECK_EQ(canonicalize(negated)->to_string(), "a < 3");
  CHECK_EQ(canonicalize(canonicalize(negated))->to_string(), "a < 3");
}

void test_interval_fusion() {
  // lo < x && x < hi fuses into a single interval predicate.
  const QueryPtr q = canonicalize(parse_query("x > 1 && x <= 2"));
  CHECK(q->kind() == Query::Kind::kInterval);
  const auto& vq = static_cast<const IntervalQuery&>(*q);
  CHECK_EQ(vq.variable(), std::string("x"));
  CHECK(vq.interval() == (Interval{1.0, 2.0, true, false}));

  // Redundant bounds collapse to the tightest interval.
  const QueryPtr tight = canonicalize(parse_query("x > 1 && x < 5 && x < 3"));
  CHECK(tight->kind() == Query::Kind::kInterval);
  CHECK(static_cast<const IntervalQuery&>(*tight).interval() ==
        (Interval{1.0, 3.0, true, true}));

  // Same-direction bounds stay a single comparison, not an interval.
  const QueryPtr one_sided = canonicalize(parse_query("x > 1 && x >= 2"));
  CHECK(one_sided->kind() == Query::Kind::kCompare);
  const auto& cq = static_cast<const CompareQuery&>(*one_sided);
  CHECK(cq.op() == CompareOp::kGe);
  CHECK_EQ(cq.value(), 2.0);

  // A closed point becomes equality.
  const QueryPtr point = canonicalize(parse_query("x >= 1 && x <= 1"));
  CHECK(point->kind() == Query::Kind::kCompare);
  CHECK(static_cast<const CompareQuery&>(*point).op() == CompareOp::kEq);

  // Fusion only groups per variable; other conjuncts pass through.
  const QueryPtr mixed = canonicalize(parse_query("x > 1 && y > 0 && x < 2"));
  CHECK(mixed->kind() == Query::Kind::kAnd);
  CHECK_EQ(key_of("x > 1 && y > 0 && x < 2"), key_of("x > 1 && x < 2 && y > 0"));

  // No fusion across Or.
  const QueryPtr disjunct = canonicalize(parse_query("x > 1 || x < 0"));
  CHECK(disjunct->kind() == Query::Kind::kOr);
}

void test_fused_interval_round_trips() {
  // The fused predicate prints as a re-parseable conjunction that fuses
  // back to the identical key.
  const QueryPtr q = canonicalize(parse_query("x > 1 && x <= 2"));
  CHECK_EQ(key_of(q->to_string().c_str()), cache_key(*q));
}

void test_contradiction_folds_to_constant() {
  const QueryPtr q = canonicalize(parse_query("x > 5 && x < 1"));
  CHECK(q->kind() == Query::Kind::kInterval);
  CHECK(static_cast<const IntervalQuery&>(*q).interval().empty());
  const core::ExecutionPlan plan = plan_query(parse_query("x > 5 && x < 1"));
  CHECK(plan.steps().size() == 1);
  CHECK(plan.steps()[0].access == core::AccessPath::kConstant);
}

void test_explain_reports_fusion_and_access() {
  const core::ExecutionPlan plan =
      plan_query(parse_query("x > 1 && x < 3 && y > 0"));
  const std::string report = plan.explain();
  CHECK(report.find("fused interval") != std::string::npos);
  CHECK(report.find("bitmap-index(x)") != std::string::npos);
  CHECK(report.find("bitmap-index(y)") != std::string::npos);
  CHECK(report.find("cache-key:") != std::string::npos);
  CHECK_EQ(plan.steps().size(), 2u);
  CHECK(plan.steps()[0].fused || plan.steps()[1].fused);
}

/// A same-variable Or is one probe of a union, so it is one step.
void test_same_variable_or_is_one_step() {
  const core::ExecutionPlan plan =
      plan_query(parse_query("y <= -5e-5 || y > 5e-5"));
  CHECK_EQ(plan.steps().size(), 1u);
  CHECK_EQ(plan.steps()[0].intervals.size(), 2u);
  CHECK(plan.steps()[0].access == core::AccessPath::kBitmapIndex);
  const std::string report = plan.explain();
  CHECK(report.find("union of 2 intervals") != std::string::npos);
  CHECK_EQ(report.find("bitmap-index(y)"), report.rfind("bitmap-index(y)"));
  // An Or over two variables stays a step per leaf.
  CHECK_EQ(plan_query(parse_query("x > 1 || y > 2")).steps().size(), 2u);
  CHECK_EQ(plan_query(parse_query("(x > 1 || x < 0) && y > 2")).steps().size(),
           2u);
}

/// Given a table, each range step reports the range-step verdict there: a
/// narrow conjunct on the value-ordered x probes, a wide one on the
/// random-order y scans (both far from every ISA level's crossover).
/// Pricing reads the segment directories only: explain() on a fresh engine
/// runs no step, pins no segment, and leaves just the two directories
/// resident.
void test_explain_reports_range_verdicts() {
  const std::filesystem::path dir = test::scratch_dir("plan_verdicts");
  io::IndexConfig index_config;
  index_config.nbins = 1024;
  index_config.build_pyramids = false;
  CHECK(sim::generate_dataset(sim::WakefieldConfig::preset_bench(20000, 1),
                              dir, index_config) > 0);
  const core::Engine engine = core::Engine::open(dir);
  const io::TimestepTable& table = engine.dataset().table(0);
  const auto [xlo, xhi] = table.domain("x");
  const auto [ylo, yhi] = table.domain("y");
  const Interval x = Interval::between(xlo + 0.40 * (xhi - xlo),
                                       xlo + 0.42 * (xhi - xlo));
  const Interval y = Interval::between(ylo + 0.2 * (yhi - ylo),
                                       ylo + 0.7 * (yhi - ylo));
  const std::string report =
      engine.select(Query::interval("x", x)->to_string() + " && " +
                    Query::interval("y", y)->to_string())
          .explain();
  const core::EngineStats stats = engine.stats();
  CHECK_EQ(stats.range_probes, 0u);
  CHECK_EQ(stats.range_scans, 0u);
  CHECK_EQ(stats.probe_segments, 0u);
  CHECK_EQ(stats.segment_bytes, table.value_index("x")->metadata_bytes() +
                                    table.value_index("y")->metadata_bytes());
  const auto verdict = [&](const std::string& var, const Interval& iv,
                           const char* path) {
    return "t0: probe " +
           std::to_string(table.value_index(var)->plan({&iv, 1}).words) +
           " words, scan " + std::to_string(table.num_rows()) + " rows -> " +
           path;
  };
  CHECK(report.find(verdict("x", x, "probe")) != std::string::npos);
  CHECK(report.find(verdict("y", y, "scan")) != std::string::npos);
}

void test_all_records_plan() {
  CHECK(canonicalize(nullptr) == nullptr);
  const core::ExecutionPlan plan = plan_query(nullptr);
  CHECK(plan.canonical() == nullptr);
  CHECK(plan.steps().empty());
  CHECK(plan.explain().find("<all records>") != std::string::npos);
}

void test_interval_intersect() {
  const Interval a = intersect(Interval::greater_than(1.0), Interval::at_most(3.0));
  CHECK(a == (Interval{1.0, 3.0, true, false}));
  // An open endpoint beats a closed one at the same value.
  const Interval b = intersect(Interval::greater_than(1.0), Interval::at_least(1.0));
  CHECK(b.lo_open);
  CHECK(intersect(Interval::less_than(1.0), Interval::greater_than(5.0)).empty());
  CHECK(!Interval::between(0.0, 1.0).empty());
  CHECK((Interval{2.0, 2.0, false, false}).contains(2.0));
  CHECK((Interval{2.0, 2.0, true, false}).empty());
}

}  // namespace

int main() {
  test_operand_order_is_canonical();
  test_flattening_is_canonical();
  test_duplicates_dropped();
  test_de_morgan();
  test_nan_constants();
  test_interval_fusion();
  test_fused_interval_round_trips();
  test_contradiction_folds_to_constant();
  test_explain_reports_fusion_and_access();
  test_same_variable_or_is_one_step();
  test_explain_reports_range_verdicts();
  test_all_records_plan();
  test_interval_intersect();
  return qdv::test::finish("test_plan");
}
