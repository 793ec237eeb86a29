// Old-vs-new rows for every execution kernel of DESIGN.md Section 10, over
// synthetic data (no dataset on disk needed): the scalar pre-PR paths
// (per-bit for_each_set + per-value Bins::locate + thread spawn/join per
// batch) against the block kernels (content walk + Bins::Locator +
// persistent pool), and the range-step rows: the interval probe against
// the pairwise OR reference, the interval scan per ISA, and the pin of a
// probe's segments. Every comparison
// asserts the two paths produce identical results and exits nonzero on any
// mismatch, so this doubles as the CI benchmark smoke check.
//
// Sizes scale with QDV_BENCH_KERNEL_ROWS (default 4,000,000; CI uses a tiny
// value). Emits JSON rows via --json <path> / QDV_BENCH_JSON.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <span>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "bitmap/bins.hpp"
#include "bitmap/bitmap_index.hpp"
#include "bitmap/index_segments.hpp"
#include "bitmap/kernels.hpp"
#include "bitmap/simd.hpp"
#include "kernel_refs.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace qdv;

int mismatches = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "[bench_kernels] MISMATCH: %s\n", what);
    ++mismatches;
  }
}

std::uint64_t g_state = 0x9E3779B97F4A7C15ull;
std::uint64_t next_rand() {
  g_state ^= g_state << 13;
  g_state ^= g_state >> 7;
  g_state ^= g_state << 17;
  return g_state;
}

BitVector make_selected(std::uint64_t nbits, double selectivity) {
  BitVector v;
  const auto threshold =
      static_cast<std::uint64_t>(selectivity * 18446744073709551615.0);
  for (std::uint64_t i = 0; i < nbits; ++i) v.append_bit(next_rand() <= threshold);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t rows = bench::env_size("QDV_BENCH_KERNEL_ROWS", 4'000'000);
  bench::JsonReporter json("kernels", argc, argv);

  std::vector<double> xs(rows);
  std::vector<double> ys(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    xs[i] = static_cast<double>(next_rand() % 1000003) / 1000003.0;
    ys[i] = static_cast<double>(next_rand() % 1000003) / 1000003.0;
  }

  std::printf("# kernel microbenchmarks: %zu rows\n", rows);
  std::printf("%-44s %14s %14s %10s\n", "kernel", "scalar(s)", "block(s)",
              "speedup");
  const auto report = [&](const std::string& label, double scalar,
                          double block) {
    std::printf("%-44s %14.5f %14.5f %9.2fx\n", label.c_str(), scalar, block,
                block > 0.0 ? scalar / block : 0.0);
    json.row(label + "/scalar", scalar);
    json.row(label + "/kernel", block,
             {{"speedup_vs_scalar", block > 0.0 ? scalar / block : 0.0}});
  };

  // Times two workloads by alternating single executions and keeping each
  // side's minimum. Adjacent-in-time pairs cancel clock/thermal drift, and
  // callers point both sides at the SAME output buffer: allocation layout
  // (page coloring, hugepage placement) is fixed per process and can
  // otherwise favor whichever side got the luckier buffer by several
  // percent. Correctness is checked separately, outside the timed region.
  // Each rep runs a burst of back-to-back executions per side: the first
  // execution after switching sides absorbs the cache/branch-predictor
  // state the other side left behind, and the per-side minimum picks the
  // clean steady-state executions.
  const auto time_pair = [](const std::function<void()>& a,
                            const std::function<void()>& b, int max_reps,
                            double min_total, int burst = 2) {
    using clock = std::chrono::steady_clock;
    double ta = 1e300;
    double tb = 1e300;
    double total = 0.0;
    for (int rep = 0; rep < max_reps; ++rep) {
      for (int j = 0; j < burst; ++j) {
        const auto s0 = clock::now();
        a();
        const double d =
            std::chrono::duration<double>(clock::now() - s0).count();
        ta = std::min(ta, d);
        total += d;
      }
      for (int j = 0; j < burst; ++j) {
        const auto s0 = clock::now();
        b();
        const double d =
            std::chrono::duration<double>(clock::now() - s0).count();
        tb = std::min(tb, d);
        total += d;
      }
      if (total >= min_total && rep >= 1) break;
    }
    return std::pair<double, double>(ta, tb);
  };

  // ---- conditional 2D histogram gather (the fig12 inner loop) ----
  const Bins xbins = make_uniform_bins(0.0, 1.0, 1024);
  const Bins ybins = make_uniform_bins(0.0, 1.0, 1024);
  for (const double sel : {1e-4, 1e-2, 0.1, 0.5}) {
    const BitVector selected = make_selected(rows, sel);
    // Zeroing the 8MB counts array costs ~0.3ms — comparable to the whole
    // kernel at low selectivity — so it stays OUTSIDE the timed region: reps
    // accumulate into one warm shared counts buffer (identical add traffic
    // both sides) and correctness is checked with fresh buffers after
    // timing.
    std::vector<std::uint64_t> counts(1024 * 1024);
    const Bins::Locator xloc = xbins.locator();
    const Bins::Locator yloc = ybins.locator();
    const auto run_scalar = [&](std::uint64_t* out) {
      selected.for_each_set([&](std::uint64_t row) {
        const std::ptrdiff_t bx = xbins.locate(xs[row]);
        const std::ptrdiff_t by = ybins.locate(ys[row]);
        if (bx >= 0 && by >= 0)
          ++out[static_cast<std::size_t>(bx) * 1024 +
                static_cast<std::size_t>(by)];
      });
    };
    const auto run_kernel = [&](std::uint64_t* out) {
      kern::gather_hist2d(selected, 0, rows, xs.data(), ys.data(), xloc, yloc,
                          1024, out);
    };
    const auto [t_scalar, t_block] =
        time_pair([&] { run_scalar(counts.data()); },
                  [&] { run_kernel(counts.data()); }, 400, 0.5);
    std::vector<std::uint64_t> ref(1024 * 1024);
    std::vector<std::uint64_t> got(1024 * 1024);
    run_scalar(ref.data());
    run_kernel(got.data());
    expect(ref == got, "hist2d gather counts");
    char label[64];
    std::snprintf(label, sizeof(label), "hist2d_gather/sel=%g", sel);
    report(label, t_scalar, t_block);
  }

  // ---- unconditional 1D histogram (branchless binning + sharded tally) ----
  {
    const Bins bins = make_uniform_bins(0.0, 1.0, 1024);
    std::vector<std::uint64_t> counts(1024);
    const Bins::Locator locate = bins.locator();
    const auto run_scalar = [&](std::uint64_t* out) {
      for (std::size_t i = 0; i < rows; ++i) {
        const std::ptrdiff_t b = bins.locate(xs[i]);
        if (b >= 0) ++out[static_cast<std::size_t>(b)];
      }
    };
    const auto run_kernel = [&](std::uint64_t* out) {
      kern::sharded_tally(
          rows, rows, 1024, out,
          [&](std::uint64_t begin, std::uint64_t end, std::uint64_t* shard) {
            for (std::uint64_t i = begin; i < end; ++i) {
              const std::ptrdiff_t b = locate(xs[i]);
              if (b >= 0) ++shard[static_cast<std::size_t>(b)];
            }
          });
    };
    const auto [t_scalar, t_block] =
        time_pair([&] { run_scalar(counts.data()); },
                  [&] { run_kernel(counts.data()); }, 20, 0.3);
    std::vector<std::uint64_t> ref(1024);
    std::vector<std::uint64_t> got(1024);
    run_scalar(ref.data());
    run_kernel(got.data());
    expect(ref == got, "hist1d counts");
    report("hist1d_uncond/1024bins", t_scalar, t_block);
  }

  // ---- to_positions (two-step gather's position materialization) ----
  for (const double sel : {1e-3, 0.1, 0.9}) {
    const BitVector selected = make_selected(rows, sel);
    std::vector<std::uint32_t> pos;
    const auto run_scalar = [&](std::vector<std::uint32_t>& out) {
      out.clear();
      selected.for_each_set(
          [&](std::uint64_t p) { out.push_back(static_cast<std::uint32_t>(p)); });
    };
    const auto [t_scalar, t_block] =
        time_pair([&] { run_scalar(pos); },
                  [&] { kern::to_positions_blocked(selected, pos); }, 2000,
                  0.25);
    std::vector<std::uint32_t> ref;
    std::vector<std::uint32_t> got;
    run_scalar(ref);
    kern::to_positions_blocked(selected, got);
    expect(ref == got, "to_positions");
    char label[64];
    std::snprintf(label, sizeof(label), "to_positions/sel=%g", sel);
    report(label, t_scalar, t_block);
  }

  // ---- per-ISA dispatch rows: each supported SIMD level vs the forced
  // scalar table, same kernel both sides (isolates the vector win from the
  // block-decode win measured above) ----
  {
    const simd::Isa initial = simd::active();
    std::vector<simd::Isa> levels{simd::Isa::kScalar};
    if (simd::supported(simd::Isa::kAvx2)) levels.push_back(simd::Isa::kAvx2);
    if (simd::supported(simd::Isa::kAvx512))
      levels.push_back(simd::Isa::kAvx512);
    const auto vector_calls = [](const simd::DispatchCounts& c,
                                 const char* kernel) {
      if (std::string_view(kernel) == "to_positions") return c.positions.vector;
      if (std::string_view(kernel) == "hist1d_gather") return c.hist1d.vector;
      return c.hist2d.vector;
    };
    const auto isa_rows = [&](const char* kernel, double sel,
                              const std::function<void()>& run,
                              const std::function<bool()>& same, int max_reps,
                              double min_total) {
      using clock = std::chrono::steady_clock;
      simd::force(simd::Isa::kScalar);
      const double t_first = bench::time_best(run, max_reps, min_total);
      for (const simd::Isa isa : levels) {
        double t_scalar = t_first;
        double t = t_first;
        if (isa != simd::Isa::kScalar) {
          // Alternate forced-scalar and forced-vector executions rep by rep
          // (milliseconds apart, not per timing window) and keep per-side
          // minimums: the ratio then compares adjacent-in-time
          // measurements, so clock/thermal drift and one-off contention
          // spikes cancel out of the speedup instead of showing up as
          // false ±2-5% swings.
          t_scalar = 1e300;
          t = 1e300;
          double total = 0.0;
          std::uint64_t pairs = 0;
          std::uint64_t vec_reps = 0;
          for (int rep = 0; rep < max_reps; ++rep) {
            simd::force(simd::Isa::kScalar);
            auto s0 = clock::now();
            run();
            double d =
                std::chrono::duration<double>(clock::now() - s0).count();
            t_scalar = std::min(t_scalar, d);
            total += d;
            simd::force(isa);
            const std::uint64_t vec_before =
                vector_calls(simd::dispatch_counts(), kernel);
            s0 = clock::now();
            run();
            d = std::chrono::duration<double>(clock::now() - s0).count();
            t = std::min(t, d);
            total += d;
            if (vector_calls(simd::dispatch_counts(), kernel) != vec_before)
              ++vec_reps;
            ++pairs;
            if (total >= min_total && rep >= 1) break;
          }
          expect(same(), kernel);
          // The dispatch counters record the route actually taken, and
          // vec_reps counts the forced-vector reps that dispatched at least
          // one vector kernel. When that is a minority of reps, the density
          // gates routed this selectivity regime to the scalar decode (bar
          // the odd locally-dense run), so the minimum on the vector side
          // comes from reps that executed the same instructions as the
          // scalar side — the true ratio is 1.0 by construction. Record
          // that instead of residual timer noise.
          if (vec_reps * 2 < pairs) t = t_scalar;
        }
        char label[96];
        std::snprintf(label, sizeof(label), "%s/sel=%g/isa=%s", kernel, sel,
                      simd::isa_name(isa));
        std::printf("%-44s %14.5f %14.5f %9.2fx\n", label, t_scalar, t,
                    t > 0.0 ? t_scalar / t : 0.0);
        json.row(label, t,
                 {{"speedup_vs_scalar", t > 0.0 ? t_scalar / t : 0.0}});
      }
      simd::force(simd::Isa::kScalar);
    };
    const Bins cbins = make_uniform_bins(0.0, 1.0, 1024);
    const Bins::Locator cloc = cbins.locator();
    for (const double sel : {1e-3, 1e-2, 0.1, 0.5, 0.9}) {
      const BitVector selected = make_selected(rows, sel);
      std::vector<std::uint32_t> pos, pos_ref;
      // Rep caps well above the time_best defaults: the per-ISA rows compare
      // near-identical code paths at microsecond scale, so the ratio must be
      // tighter than run-to-run noise.
      isa_rows(
          "to_positions", sel,
          [&] { kern::to_positions_blocked(selected, pos); },
          [&] {
            simd::force(simd::Isa::kScalar);
            kern::to_positions_blocked(selected, pos_ref);
            return pos == pos_ref;
          },
          40000, 0.2);
      // As in the old-vs-new rows above, the counts arrays are zeroed outside
      // the timed region (reps accumulate; the verification callback redoes
      // both sides on fresh buffers) so memset cost and jitter stay out of
      // microsecond-scale ratios.
      std::vector<std::uint64_t> h1(1024), h1_ref(1024);
      isa_rows(
          "hist1d_gather", sel,
          [&] {
            kern::gather_hist1d(selected, 0, rows, xs.data(), cloc, h1.data());
          },
          [&] {
            std::fill(h1.begin(), h1.end(), 0);
            kern::gather_hist1d(selected, 0, rows, xs.data(), cloc, h1.data());
            std::fill(h1_ref.begin(), h1_ref.end(), 0);
            simd::force(simd::Isa::kScalar);
            kern::gather_hist1d(selected, 0, rows, xs.data(), cloc,
                                h1_ref.data());
            return h1 == h1_ref;
          },
          8000, 0.3);
      std::vector<std::uint64_t> h2(1024 * 1024), h2_ref(1024 * 1024);
      isa_rows(
          "hist2d_gather", sel,
          [&] {
            kern::gather_hist2d(selected, 0, rows, xs.data(), ys.data(), cloc,
                                cloc, 1024, h2.data());
          },
          [&] {
            std::fill(h2.begin(), h2.end(), 0);
            kern::gather_hist2d(selected, 0, rows, xs.data(), ys.data(), cloc,
                                cloc, 1024, h2.data());
            std::fill(h2_ref.begin(), h2_ref.end(), 0);
            simd::force(simd::Isa::kScalar);
            kern::gather_hist2d(selected, 0, rows, xs.data(), ys.data(), cloc,
                                cloc, 1024, h2_ref.data());
            return h2 == h2_ref;
          },
          8000, 0.3);
    }
    simd::force(initial);
  }

  // ---- range steps: probe or scan (DESIGN.md Section 3) ----
  // One explore-sized step (1,008,000 rows): y in random order, px with a
  // thermal bulk and a heavy tail, and x in value order, each indexed into
  // 1024 uniform bins as the generator does. The probe rows carry the
  // compressed words the probe reads and their ns per word; the scan rows
  // carry ns per row per ISA; the pin row, the segments a probe pins and
  // its ns per segment. The range-step rule's constants
  // (kern::kProbeNsPerWord, simd::Ops::scan_ns_per_row) are read off these
  // rows.
  {
    const std::size_t step_rows = std::min<std::size_t>(rows, 1'008'000);
    std::vector<double> y(step_rows), px(step_rows), x(step_rows);
    for (std::size_t i = 0; i < step_rows; ++i) {
      x[i] = static_cast<double>(i) / static_cast<double>(step_rows);
      y[i] = static_cast<double>(next_rand() >> 11) * 0x1.0p-52 - 1.0;
      const double u = static_cast<double>(next_rand() >> 11) * 0x1.0p-53;
      const double e = -std::log(1.0 - static_cast<double>(next_rand() >> 11) *
                                           0x1.0p-53);
      px[i] = u < 0.03 ? std::min(30.0 * e, 400.0) : std::min(e, 4.0);
    }
    struct Column {
      const char* name;
      const std::vector<double>& values;
      std::string image;
      SegmentedBitmapIndex index;
    };
    std::vector<Column> columns;
    for (const auto& [name, values, hi] :
         {std::tuple<const char*, const std::vector<double>&, double>{"y", y, 1.0},
          {"px", px, 400.0},
          {"x", x, 1.0}}) {
      std::ostringstream out;
      BitmapIndex::build(values, make_uniform_bins(name[0] == 'y' ? -1.0 : 0.0,
                                                   hi, 1024))
          .save(out);
      columns.push_back({name, values, out.str(), {}});
    }
    for (Column& c : columns)
      c.index = SegmentedBitmapIndex::open(
          std::as_bytes(std::span<const char>(c.image)), nullptr);

    const auto probe_row = [&](const Column& c, const char* what,
                               const Interval& iv) {
      const std::span<const Interval> ivs(&iv, 1);
      const SegmentedBitmapIndex::ProbePlan plan = c.index.plan(ivs);
      const SegmentedBitmapIndex::Probe probe = c.index.pin(plan);
      BitVector got;
      const double t = bench::time_best(
          [&] { got = probe.run(ivs, c.values); }, 200, 0.3);
      expect(got == kern::ref::scan_intervals_rows(c.values, ivs),
             "probe_intervals result");
      char label[96];
      std::snprintf(label, sizeof(label), "probe_intervals/%s/%s", c.name, what);
      const double ns_per_word = t * 1e9 / static_cast<double>(plan.words);
      std::printf("%-44s %14s %14.5f %8.2f ns/word (%" PRIu64 " words)\n",
                  label, "-", t, ns_per_word, plan.words);
      json.row(label, t,
               {{"words", static_cast<double>(plan.words)},
                {"ns_per_word", ns_per_word}});
    };
    // y intervals centred on 0 at 5%, 20% and 50% of the domain.
    for (const auto& [what, half] :
         {std::pair<const char*, double>{"width=5%", 0.05}, {"width=20%", 0.2},
          {"width=50%", 0.5}})
      probe_row(columns[0], what, Interval::between(-half, half));
    probe_row(columns[1], "bulk", Interval::greater_than(0.5));

    // The pin of a 30% x interval: about 300 segments, the shape of
    // explore's x and xrel steps. Warm: the first pin checks every segment
    // once, so the row times what each later probe pays per segment.
    {
      const Interval iv = Interval::between(0.35, 0.65);
      const SegmentedBitmapIndex::ProbePlan plan =
          columns[2].index.plan({&iv, 1});
      const std::uint64_t segments = columns[2].index.pin(plan).segments;
      std::uint64_t pinned = 0;
      const double t = bench::time_best(
          [&] { pinned = columns[2].index.pin(plan).segments; }, 20000, 0.3);
      expect(pinned == segments && segments > 0, "pin segments");
      const double ns_per_segment = t * 1e9 / static_cast<double>(segments);
      std::printf("%-44s %14s %14.7f %8.2f ns/segment (%" PRIu64
                  " segments)\n",
                  "pin/x/width=30%", "-", t, ns_per_segment, segments);
      json.row("pin/x/width=30%", t,
               {{"segments", static_cast<double>(segments)},
                {"ns_per_segment", ns_per_segment}});
    }

    // The scan of the 20% y interval at every supported level with a body
    // of its own: the AVX-512 level runs the AVX2 body (DESIGN.md
    // Section 12), so it gets no row.
    const simd::Isa initial = simd::active();
    const Interval iv = Interval::between(-0.2, 0.2);
    const std::span<const Interval> ivs(&iv, 1);
    const BitVector want = kern::ref::scan_intervals_rows(y, ivs);
    double t_scalar = 0.0;
    for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
      if (!simd::supported(isa)) continue;
      simd::force(isa);
      BitVector got;
      const double t = bench::time_best(
          [&] { got = kern::scan_intervals(y, ivs); }, 200, 0.3);
      expect(got == want, "scan_intervals result");
      if (isa == simd::Isa::kScalar) t_scalar = t;
      const double ns_per_row = t * 1e9 / static_cast<double>(step_rows);
      char label[96];
      std::snprintf(label, sizeof(label), "scan_intervals/y/isa=%s",
                    simd::isa_name(isa));
      std::printf("%-44s %14.5f %14.5f %8.3f ns/row\n", label, t_scalar, t,
                  ns_per_row);
      json.row(label, t,
               {{"ns_per_row", ns_per_row},
                {"speedup_vs_scalar", t > 0.0 ? t_scalar / t : 0.0}});
    }
    simd::force(initial);

    // A quarantined y index: the row-at-a-time scan it used to fall back
    // to, against the vector scan at the active level.
    BitVector got;
    const auto [t_rows, t_scan] = time_pair(
        [&] { got = kern::ref::scan_intervals_rows(y, ivs); },
        [&] { got = kern::scan_intervals(y, ivs); }, 100, 0.5);
    expect(kern::scan_intervals(y, ivs) == want, "quarantined scan result");
    report("scan_intervals/quarantined_y", t_rows, t_scan);

    // ---- combine: the AND of explore's conjuncts and a brush refine ----
    // y & px: two random-order range results (about 32K literal words
    // each); y & x: x is value-ordered, so its range result is a zero
    // fill, a literal, a one-fill, a literal and a zero fill.
    const Interval ypos = Interval::greater_than(0.0);
    const Interval pxlo = Interval::less_than(1.0);
    const Interval xmid = Interval::between(0.3, 0.6);
    const BitVector ry = kern::scan_intervals(y, {&ypos, 1});
    const BitVector rpx = kern::scan_intervals(px, {&pxlo, 1});
    const BitVector rx = kern::scan_intervals(x, {&xmid, 1});
    const auto combine_row = [&](const char* label, const BitVector& a,
                                 const BitVector& b, char op) {
      const auto bits = [op](bool p, bool q) {
        return op == '&' ? (p && q) : op == '|' ? (p || q) : (p != q);
      };
      const auto run = [&] {
        return op == '&' ? (a & b) : op == '|' ? (a | b) : (a ^ b);
      };
      // Timed alone: the bit-by-bit reference checks the result but is no
      // baseline worth a ratio.
      BitVector out = kern::ref::combine_bits(a, b, bits);
      expect(out == run(), label);
      const double t = bench::time_best([&] { out = run(); }, 2000, 0.3);
      std::printf("%-44s %14s %14.7f\n", label, "-", t);
      json.row(label, t);
    };
    combine_row("combine/y&px", ry, rpx, '&');
    combine_row("combine/y&x", ry, rx, '&');
    combine_row("combine/x&y", rx, ry, '&');
    combine_row("combine/y|x", ry, rx, '|');
    combine_row("combine/y^x", ry, rx, '^');
  }

  // ---- batch dispatch: thread spawn/join per batch vs persistent pool ----
  {
    constexpr int kBatches = 200;
    constexpr std::size_t kTasks = 16;
    const std::size_t nthreads = 4;
    std::atomic<std::uint64_t> sink{0};
    const auto work = [&](std::size_t t) {
      sink.fetch_add(t + 1, std::memory_order_relaxed);
    };
    const double t_scalar = bench::time_best([&] {
      for (int b = 0; b < kBatches; ++b) {
        std::atomic<std::size_t> nextt{0};
        std::vector<std::thread> workers;
        for (std::size_t w = 0; w < nthreads; ++w)
          workers.emplace_back([&] {
            for (;;) {
              const std::size_t t = nextt.fetch_add(1);
              if (t >= kTasks) return;
              work(t);
            }
          });
        for (std::thread& w : workers) w.join();
      }
    });
    par::ThreadPool pool(nthreads);
    const double t_block = bench::time_best([&] {
      for (int b = 0; b < kBatches; ++b) pool.parallel_for(kTasks, nthreads, work);
    });
    expect(sink.load() > 0, "dispatch sink");
    report("batch_dispatch/200x16tasks", t_scalar, t_block);
  }

  if (mismatches > 0) {
    std::fprintf(stderr, "[bench_kernels] %d kernel/reference mismatches\n",
                 mismatches);
    return 1;
  }
  std::printf("# all kernel results match their scalar references\n");
  return 0;
}
