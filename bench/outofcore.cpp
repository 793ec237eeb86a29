// Out-of-core io benchmark (DESIGN.md Section 9): mmap-backed lazy loading.
//
//   1. Cold start — time-to-first-answer of one selective query against a
//      freshly opened dataset, and the bytes it loaded (segment directory +
//      touched segments + the candidate column), next to the on-disk size
//      of that column and its whole index.
//   2. O(touched columns) — a query probing k of the 7 value columns reads
//      O(k) column bytes, verified via the engine's resident/loaded stats.
//   3. Budget sweep — the same workload under shrinking byte budgets:
//      completion time degrades gracefully while resident bytes stay under
//      the ceiling.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/selection.hpp"

namespace {

using namespace qdv;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// A selective range query on @p var, cutting at 60% of its global domain.
std::string cut_query(const io::Dataset& ds, const std::string& var) {
  const auto [lo, hi] = ds.global_domain(var);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s > %.6g", var.c_str(),
                lo + 0.6 * (hi - lo));
  return buf;
}

}  // namespace

int main() {
  const auto dir = bench::ensure_serial_dataset();
  const std::vector<std::string> vars = {"px", "x", "y", "z", "py", "pz", "xrel"};

  // ---------------------------------------------------------- cold start ---
  std::printf("# Out-of-core io: mmap-backed lazy loading\n\n");
  std::printf("%-28s %12s %16s %16s\n", "cold-start (one query)", "seconds",
              "bytes loaded", "whole-file B");
  {
    const auto start = std::chrono::steady_clock::now();
    const io::Dataset ds = io::Dataset::open(dir);
    const std::string q = cut_query(ds, "px");
    const std::uint64_t count =
        core::plan_query(parse_query(q)).evaluate(ds.table(0), EvalMode::kAuto)->count();
    const double seconds = seconds_since(start);
    const io::MemoryBudgetStats s = ds.memory_budget()->stats();
    // What reading the column and its index whole would have cost.
    const std::uint64_t whole =
        std::filesystem::file_size(ds.step_dir(0) / "px.f64") +
        std::filesystem::file_size(ds.step_dir(0) / "px.bmi");
    std::printf("%-28s %12.4f %16llu %16llu   (%llu hits)\n\n",
                "lazy (mmap+segments)", seconds,
                static_cast<unsigned long long>(s.loaded_bytes),
                static_cast<unsigned long long>(whole),
                static_cast<unsigned long long>(count));
  }

  // --------------------------------------------------- O(touched columns) ---
  std::printf("%-10s %18s %18s %14s\n", "k columns", "column B loaded",
              "segment B loaded", "of total B");
  for (std::size_t k = 1; k <= vars.size(); ++k) {
    const core::Engine engine = core::Engine::open(dir);
    std::string query;
    for (std::size_t i = 0; i < k; ++i) {
      if (i) query += " && ";
      query += cut_query(engine.dataset(), vars[i]);
    }
    (void)engine.select(query).count(0);
    const core::EngineStats s = engine.stats();
    const std::uint64_t total_column_bytes =
        vars.size() * engine.dataset().table(0).num_rows() * sizeof(double);
    std::printf("%-10zu %18llu %18llu %13.1f%%\n", k,
                static_cast<unsigned long long>(s.column_bytes),
                static_cast<unsigned long long>(s.segment_bytes),
                100.0 * static_cast<double>(s.column_bytes) /
                    static_cast<double>(total_column_bytes));
  }

  // ---------------------------------------------------------- budget sweep ---
  std::printf("\n%-14s %12s %12s %14s %14s\n", "budget", "seconds",
              "evictions", "resident B", "loaded B");
  const std::uint64_t unlimited = io::MemoryBudget::kUnlimited;
  for (const std::uint64_t budget :
       {std::uint64_t{4} << 20, std::uint64_t{16} << 20, std::uint64_t{64} << 20,
        unlimited}) {
    io::OpenOptions options;
    options.budget_bytes = budget;
    const core::Engine engine(io::Dataset::open(dir, options));
    std::vector<std::string> queries;
    for (const std::string& var : vars)
      queries.push_back(cut_query(engine.dataset(), var));
    const auto start = std::chrono::steady_clock::now();
    for (int round = 0; round < 2; ++round)  // cold + warm pass
      for (const std::string& q : queries) (void)engine.select(q).count(0);
    const double elapsed = seconds_since(start);
    const core::EngineStats s = engine.stats();
    char label[32];
    if (budget == unlimited)
      std::snprintf(label, sizeof(label), "unlimited");
    else
      std::snprintf(label, sizeof(label), "%llu MiB",
                    static_cast<unsigned long long>(budget >> 20));
    std::printf("%-14s %12.4f %12llu %14llu %14llu\n", label, elapsed,
                static_cast<unsigned long long>(s.evictions + s.io_evictions),
                static_cast<unsigned long long>(s.resident_bytes),
                static_cast<unsigned long long>(s.loaded_bytes));
  }
  return 0;
}
