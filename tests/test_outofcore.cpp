// Out-of-core io layer: MappedFile/ColumnHandle lifecycle, segment-wise
// index equivalence (probed in place, and decoded), MemoryBudget accounting
// and eviction, and the
// budget edge cases — eviction under a tiny budget mid-query, a column
// larger than the whole budget (streaming scan), concurrent selections
// sharing one mapped file, and O(touched-columns) load volume.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include "agg/pyramid.hpp"
#include "bitmap/index_segments.hpp"
#include "core/selection.hpp"
#include "io/mapped_file.hpp"
#include "io/memory_budget.hpp"
#include "kernel_refs.hpp"
#include "parallel/prefetch.hpp"
#include "sim/wakefield.hpp"
#include "test_common.hpp"

namespace {

using namespace qdv;

const std::filesystem::path& dataset_dir() {
  static const std::filesystem::path dir = [] {
    const std::filesystem::path d = qdv::test::scratch_dir("outofcore");
    sim::WakefieldConfig cfg = sim::WakefieldConfig::preset_2d(400, /*seed=*/7);
    io::IndexConfig index_config;
    index_config.nbins = 64;
    CHECK(sim::generate_dataset(cfg, d, index_config) > 0);
    return d;
  }();
  return dir;
}

void test_mapped_file_and_column_handle() {
  const std::filesystem::path dir = qdv::test::scratch_dir("outofcore_map");
  const std::filesystem::path file = dir / "col.f64";
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i * 0.5);
  {
    std::ofstream out(file, std::ios::binary);
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(double)));
  }

  const auto mapped = io::MappedFile::map(file);
  CHECK_EQ(mapped->size(), values.size() * sizeof(double));
  CHECK_EQ(mapped->path(), file);

  io::ColumnHandle<double> handle(file, values.size());
  CHECK(!handle.loaded());
  CHECK(handle.values().empty());
  CHECK_EQ(handle.bytes(), values.size() * sizeof(double));
  const std::span<const double> loaded = handle.load();
  CHECK(handle.loaded());
  CHECK_EQ(loaded.size(), values.size());
  bool equal = true;
  for (std::size_t i = 0; i < values.size(); ++i)
    if (loaded[i] != values[i]) equal = false;
  CHECK(equal);

  // release() drops pages but never the mapping: the same span re-reads
  // identical data (refaulted from the file).
  handle.release();
  CHECK(handle.loaded());
  equal = true;
  for (std::size_t i = 0; i < values.size(); ++i)
    if (loaded[i] != values[i]) equal = false;
  CHECK(equal);

  // A short file is detected at load time, also when the row count (from
  // meta.txt) is so large that its byte size wraps around to zero.
  io::ColumnHandle<double> truncated(file, values.size() + 1);
  CHECK_THROWS(truncated.load());
  io::ColumnHandle<double> wrapped(file, std::uint64_t{1} << 61);
  CHECK_THROWS(wrapped.load());

  // Empty files map to empty spans.
  const std::filesystem::path empty = dir / "empty.f64";
  std::ofstream(empty, std::ios::binary).flush();
  CHECK_EQ(io::MappedFile::map(empty)->size(), 0u);

  // Heap fallback (QDV_NO_MMAP) serves identical bytes.
  ::setenv("QDV_NO_MMAP", "1", 1);
  const auto heap = io::MappedFile::map(file);
  ::unsetenv("QDV_NO_MMAP");
  CHECK(!heap->backed_by_mmap());
  CHECK_EQ(heap->size(), mapped->size());
  CHECK(std::equal(heap->bytes().begin(), heap->bytes().end(),
                   mapped->bytes().begin()));
}

void test_segmented_index_matches_eager() {
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i)
    values.push_back((i * 37 % 101) * 1.37 - 19.0);
  const Bins bins = make_uniform_bins(-19.0, 120.0, 48);
  const BitmapIndex eager = BitmapIndex::build(values, bins);
  const std::filesystem::path file =
      qdv::test::scratch_dir("outofcore_seg") / "col.bmi";
  {
    std::ofstream out(file, std::ios::binary);
    eager.save(out);
  }

  const auto mapped = io::MappedFile::map(file);
  const SegmentedBitmapIndex lazy =
      SegmentedBitmapIndex::open(mapped->bytes(), mapped);
  CHECK_EQ(lazy.num_rows(), eager.num_rows());
  CHECK(lazy.bins() == eager.bins());
  CHECK_EQ(lazy.num_segments(), bins.num_bins() + 1);

  // Every per-bin segment decodes to the eager index's bitmap.
  for (std::size_t b = 0; b < bins.num_bins(); ++b)
    CHECK(lazy.decode_segment(b) == eager.bin_bitmap(b));

  // Evaluation equivalence across interval shapes, each pinned cold (its
  // segments' first touch checks them) and again warm.
  for (const Interval& iv :
       {Interval::greater_than(40.0), Interval::at_most(-3.5),
        Interval::between(0.0, 55.0), Interval::at_least(119.0),
        Interval::between(-100.0, 300.0), Interval::greater_than(200.0)}) {
    const std::span<const Interval> ivs(&iv, 1);
    const BitVector expect = kern::ref::scan_intervals_rows(values, ivs);
    CHECK(lazy.pin(ivs).run(ivs, values) == expect);
    CHECK(lazy.pin(ivs).run(ivs, values) == expect);
  }
}

void test_memory_budget_accounting() {
  io::MemoryBudget budget(1000);
  auto payload = [](std::size_t n) {
    return std::shared_ptr<const void>(new char[n],
                                       [](const void* p) { delete[] static_cast<const char*>(p); });
  };
  budget.put("a", payload(1), 400, io::ResidentClass::kColumn);
  budget.put("b", payload(1), 400, io::ResidentClass::kColumn);
  CHECK_EQ(budget.stats().resident_bytes, 800u);
  CHECK(budget.get("a", io::ResidentClass::kColumn) != nullptr);

  // "c" exceeds the ceiling: the LRU tail ("b") goes first.
  budget.put("c", payload(1), 300, io::ResidentClass::kBitVector);
  CHECK(budget.get("b", io::ResidentClass::kColumn) == nullptr);
  CHECK(budget.get("a", io::ResidentClass::kColumn) != nullptr);
  CHECK(budget.stats().resident_bytes <= 1000u);
  CHECK(budget.stats().evictions >= 1);

  // An entry larger than the whole budget is admitted then evicted; the
  // returned pin (held by the caller) keeps the payload alive meanwhile.
  bool released = false;
  budget.put("huge", payload(1), 5000, io::ResidentClass::kColumn,
             [&released] { released = true; });
  CHECK(budget.get("huge", io::ResidentClass::kColumn) == nullptr);
  CHECK(released);

  // Pinned entries are charged but never evicted.
  budget.put("pin", nullptr, 900, io::ResidentClass::kIndexSegment, {}, true);
  budget.put("d", payload(1), 900, io::ResidentClass::kColumn);
  const auto s = budget.stats();
  CHECK_EQ(s.of(io::ResidentClass::kIndexSegment).bytes, 900u);
  CHECK(budget.get("d", io::ResidentClass::kColumn) == nullptr);  // evicted

  // Per-class entry caps evict only that class.
  budget.clear();
  budget.set_class_entry_cap(io::ResidentClass::kBitVector, 2);
  budget.put("x", payload(1), 1, io::ResidentClass::kColumn);
  budget.put("v1", payload(1), 1, io::ResidentClass::kBitVector);
  budget.put("v2", payload(1), 1, io::ResidentClass::kBitVector);
  budget.put("v3", payload(1), 1, io::ResidentClass::kBitVector);
  CHECK_EQ(budget.stats().of(io::ResidentClass::kBitVector).entries, 2u);
  CHECK(budget.get("x", io::ResidentClass::kColumn) != nullptr);
  CHECK(budget.get("v1", io::ResidentClass::kBitVector) == nullptr);
}

/// Reference counts (core::CustomScan), computed on a fresh open_table()
/// table.
std::vector<std::uint64_t> reference_counts(const std::vector<const char*>& texts,
                                            std::size_t t) {
  const io::Dataset ds = io::Dataset::open(dataset_dir());
  const auto table = ds.open_table(t);
  std::vector<std::uint64_t> counts;
  for (const char* text : texts)
    counts.push_back(test::scan_oracle(*table, *parse_query(text)).count());
  return counts;
}

const std::vector<const char*>& corpus() {
  static const std::vector<const char*> texts = {
      "px > 8.872e10",
      "px > 1e10 && px < 9e10",
      "px > 1e10 && y > 0 && xrel < 0.9",
      "!(px <= 1e9 || xrel >= 0.9)",
      "y > 0 && y < 1e-5",
  };
  return texts;
}

void test_tiny_budget_mid_query_eviction() {
  // A budget far below the dataset's working set: every query must still
  // answer exactly, with evictions happening between (and inside) queries.
  io::OpenOptions options;
  options.budget_bytes = 4 << 10;
  const core::Engine engine(io::Dataset::open(dataset_dir(), options));
  const std::size_t t = 37;
  const std::vector<std::uint64_t> expect = reference_counts(corpus(), t);
  for (int round = 0; round < 2; ++round)
    for (std::size_t i = 0; i < corpus().size(); ++i)
      CHECK_EQ(engine.select(corpus()[i]).count(t), expect[i]);
  const core::EngineStats s = engine.stats();
  CHECK(s.budget_bytes == (4u << 10));
  CHECK(s.resident_bytes <= s.budget_bytes);
  CHECK(s.io_evictions + s.evictions > 0);
  CHECK(s.loaded_bytes > s.budget_bytes);  // far more flowed through than fits
}

void test_pyramid_partial_residency() {
  // The pair pyramid's fine levels (256x256 leaf counts alone are 512 KiB)
  // dwarf a 4 KiB budget: zoom serves must stay bit-exact through partial
  // residency — level pins survive eviction — while kPyramid levels cycle
  // through the LRU, and the below-resolution fallback must stay exact too.
  io::OpenOptions options;
  options.budget_bytes = 4 << 10;
  const core::Engine engine(io::Dataset::open(dataset_dir(), options));
  const std::size_t t = 37;
  const auto pyr = engine.dataset().table(t).pyramid2d("x", "px");
  CHECK(pyr != nullptr);
  CHECK(pyr->total_count_bytes() > options.budget_bytes);
  const std::vector<double>& xe = pyr->leaf_edges(0);
  const std::vector<double>& ye = pyr->leaf_edges(1);
  const double xw = xe.back() - xe.front(), yw = ye.back() - ye.front();

  const core::Selection sel = engine.all();
  for (const std::size_t nbins : {8u, 16u, 64u}) {
    for (const double f : {0.0, 0.13, 0.31}) {
      const core::Zoom2DResult a = sel.zoom_histogram2d(
          t, "x", "px", xe.front() + f * xw, xe.back() - 0.05 * xw,
          ye.front() + f * yw, ye.back(), nbins, nbins, core::ZoomMode::kAuto);
      const core::Zoom2DResult e = sel.zoom_histogram2d(
          t, "x", "px", xe.front() + f * xw, xe.back() - 0.05 * xw,
          ye.front() + f * yw, ye.back(), nbins, nbins, core::ZoomMode::kExact);
      CHECK(a.pyramid);
      CHECK(a.hist.counts == e.hist.counts);
      CHECK(a.hist.xbins.edges() == e.hist.xbins.edges());
      CHECK(a.hist.ybins.edges() == e.hist.ybins.edges());
    }
  }
  // Deep zoom below the leaf resolution: the exact-kernel fallback answers
  // under the same tiny budget (columns stream through it).
  const core::Zoom1DResult deep_a = sel.zoom_histogram1d(
      t, "px", ye.front() + 0.400 * yw, ye.front() + 0.401 * yw, 64,
      core::ZoomMode::kAuto);
  const core::Zoom1DResult deep_e = sel.zoom_histogram1d(
      t, "px", ye.front() + 0.400 * yw, ye.front() + 0.401 * yw, 64,
      core::ZoomMode::kExact);
  CHECK(!deep_a.pyramid);
  CHECK(deep_a.hist.counts == deep_e.hist.counts);

  const core::EngineStats s = engine.stats();
  CHECK(s.pyramid_served > 0);
  CHECK(s.pyramid_fallback > 0);
  CHECK(s.pyramid_evictions > 0);  // levels really cycled through the LRU
  CHECK(s.io_evictions > 0);
  CHECK(s.resident_bytes <= s.budget_bytes);
}

void test_column_larger_than_budget() {
  // 1 KiB budget vs ~3 KiB columns: every column access overflows the whole
  // budget and must stream through (mmap pages fault in and are dropped).
  io::OpenOptions options;
  options.budget_bytes = 1 << 10;
  const io::Dataset ds = io::Dataset::open(dataset_dir(), options);
  const std::size_t t = 37;
  CHECK(ds.table(t).num_rows() * sizeof(double) > options.budget_bytes);

  // Pure scan evaluation (columns only) and index evaluation both complete.
  const core::Engine scan_engine(ds, EvalMode::kScan);
  const core::Engine auto_engine(io::Dataset::open(dataset_dir(), options));
  const std::vector<std::uint64_t> expect = reference_counts(corpus(), t);
  for (std::size_t i = 0; i < corpus().size(); ++i) {
    CHECK_EQ(scan_engine.select(corpus()[i]).count(t), expect[i]);
    CHECK_EQ(auto_engine.select(corpus()[i]).count(t), expect[i]);
  }

  // Spans handed out before an eviction stay valid afterwards (the mapping
  // survives; only residency was dropped).
  const io::TimestepTable& table = ds.table(t);
  const std::span<const double> px = table.column("px");
  for (const char* var : {"x", "y", "xrel"}) (void)table.column(var);
  const auto fresh = ds.open_table(t);
  const std::span<const double> expect_px = fresh->column("px");
  bool equal = px.size() == expect_px.size();
  for (std::size_t i = 0; equal && i < px.size(); ++i)
    if (px[i] != expect_px[i]) equal = false;
  CHECK(equal);
}

void test_concurrent_selections_share_mapped_file() {
  io::OpenOptions options;
  options.budget_bytes = 32 << 10;  // keep eviction pressure on
  const core::Engine engine(io::Dataset::open(dataset_dir(), options));
  const std::size_t t = 37;
  const std::vector<std::uint64_t> expect = reference_counts(corpus(), t);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < 4; ++round) {
        const std::size_t i = (w + round) % corpus().size();
        const core::Selection sel = engine.select(corpus()[i]);
        if (sel.count(t) != expect[i]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  CHECK_EQ(mismatches.load(), 0);
}

void test_touched_columns_only() {
  // A query touching k of the 7 value columns must read O(k) column bytes,
  // not O(all columns). Scan evaluation states it exactly: one variable ->
  // exactly one column's bytes resident.
  const std::size_t t = 37;
  {
    const core::Engine scan(io::Dataset::open(dataset_dir()), EvalMode::kScan);
    const std::uint64_t rows = scan.dataset().table(t).num_rows();
    (void)scan.select("px > 3.7e10").count(t);
    CHECK_EQ(scan.stats().column_bytes, rows * sizeof(double));
    (void)scan.select("px > 3.7e10 && y > 0 && x >= 0").count(t);
    CHECK_EQ(scan.stats().column_bytes, 3 * rows * sizeof(double));
  }
  {
    // The index path reads at most the probed column (often none at all —
    // index-only answers skip the candidate check entirely).
    const core::Engine engine = core::Engine::open(dataset_dir());
    const std::uint64_t rows = engine.dataset().table(t).num_rows();
    (void)engine.select("px > 3.7e10").count(t);
    CHECK(engine.stats().column_bytes <= rows * sizeof(double));
  }
}

void test_prefetcher() {
  io::Dataset ds = io::Dataset::open(dataset_dir());
  const std::size_t steps = ds.num_timesteps();
  par::Prefetcher prefetch(ds, /*max_queue=*/steps);
  for (std::size_t t = 0; t < steps; ++t)
    while (!prefetch.request(t, {"px", "id"}))  // full queue: retry
      prefetch.wait_idle();
  CHECK(!prefetch.request(steps + 5, {"px"}));  // out of range: dropped
  prefetch.wait_idle();
  CHECK_EQ(prefetch.completed(), steps);
  // Everything the traversal needs is already resident.
  std::uint64_t expected_bytes = 0;
  for (std::size_t t = 0; t < steps; ++t)
    expected_bytes += ds.table(t).num_rows() * sizeof(double);
  const io::MemoryBudgetStats s = ds.memory_budget()->stats();
  CHECK(s.of(io::ResidentClass::kColumn).bytes >= expected_bytes);
}

}  // namespace

int main() {
  test_mapped_file_and_column_handle();
  test_segmented_index_matches_eager();
  test_memory_budget_accounting();
  test_tiny_budget_mid_query_eviction();
  test_pyramid_partial_residency();
  test_column_larger_than_budget();
  test_concurrent_selections_share_mapped_file();
  test_touched_columns_only();
  test_prefetcher();
  return qdv::test::finish("test_outofcore");
}
