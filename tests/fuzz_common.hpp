// Shared property-based fuzz machinery: the seeded xorshift generator, the
// random dataset writer (columns + bitmap/id indices + histogram pyramids +
// manifest), and the random query-AST generator. test_fuzz_query drives its
// differential legs with it, and the brush, integrity and service suites
// build their datasets with it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "agg/pyramid.hpp"
#include "bitmap/bitmap_index.hpp"
#include "core/query.hpp"
#include "io/checksum.hpp"
#include "io/dataset.hpp"
#include "test_common.hpp"

namespace qdv::test::fuzz {

inline std::uint64_t next(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

inline double uniform(std::uint64_t& state, double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(next(state) % 1000003) / 1000003.0);
}

/// Iteration count for one fuzz leg: a reduced tier-1 default, deep runs
/// override with QDV_FUZZ_ITERS.
inline std::size_t iterations(std::size_t fallback = 60) {
  if (const char* env = std::getenv("QDV_FUZZ_ITERS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

inline const std::vector<std::string>& variables() {
  static const std::vector<std::string> vars = {"a", "b", "c"};
  return vars;
}

template <typename T>
void write_binary(const std::filesystem::path& file, const std::vector<T>& data) {
  std::ofstream out(file, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(T)));
  CHECK(out.good());
}

/// Random single-variable column: each variable gets a different shape so
/// the fuzz queries cross uniform, clustered (duplicate-heavy, so `==`
/// matches rows), and skewed positive data.
inline std::vector<double> random_column(const std::string& var,
                                         std::size_t rows,
                                         std::uint64_t& state) {
  std::vector<double> values(rows);
  for (double& v : values) {
    if (var == "a") {
      v = uniform(state, -100.0, 100.0);
    } else if (var == "b") {
      v = 0.5 * static_cast<double>(next(state) % 41) - 10.0;  // 0.5 grid
    } else {
      const double u = uniform(state, 0.0, 10.0);
      v = u * u * u;  // skewed, [0, 1000]
    }
  }
  return values;
}

/// Write a complete random dataset (columns + bitmap/id indices + meta +
/// manifest) the io layer can open in either load mode.
inline std::filesystem::path write_random_dataset(const std::string& name,
                                                  std::size_t timesteps,
                                                  std::size_t rows,
                                                  std::uint64_t seed,
                                                  std::size_t index_bins) {
  const std::filesystem::path dir = qdv::test::scratch_dir(name);
  std::uint64_t state = seed | 1;
  const auto& vars = variables();
  std::vector<std::pair<double, double>> global(vars.size(), {1e300, -1e300});
  for (std::size_t t = 0; t < timesteps; ++t) {
    const std::filesystem::path step = dir / io::step_dir_name(t);
    std::filesystem::create_directories(step);
    std::ofstream meta(step / "meta.txt");
    meta.precision(17);
    meta << "rows " << rows << "\n";
    std::vector<std::vector<double>> columns;
    std::vector<std::pair<double, double>> domains;
    for (std::size_t v = 0; v < vars.size(); ++v) {
      std::vector<double> column = random_column(vars[v], rows, state);
      double lo = column.front(), hi = column.front();
      for (const double x : column) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
      meta << "domain " << vars[v] << ' ' << lo << ' ' << hi << "\n";
      global[v].first = std::min(global[v].first, lo);
      global[v].second = std::max(global[v].second, hi);
      write_binary(step / (vars[v] + ".f64"), column);
      const double safe_hi = hi > lo ? hi : lo + 1.0;
      const BitmapIndex index = BitmapIndex::build(
          column, make_uniform_bins(lo, safe_hi, index_bins));
      std::ofstream out(step / (vars[v] + ".bmi"), std::ios::binary);
      index.save(out);
      // Histogram pyramids next to the .bmi segments (DESIGN.md §14): a
      // 32-leaf 1D pyramid per variable so the zoom fuzz legs route through
      // the pyramid tier on the same random data.
      agg::Pyramid::build1d(column, make_uniform_bins(lo, safe_hi, 32))
          .save(step / agg::pyramid_filename(vars[v]));
      columns.push_back(std::move(column));
      domains.emplace_back(lo, safe_hi);
    }
    // Pair pyramid over (a, b) for conditioned-zoom coverage.
    agg::Pyramid::build2d(columns[0], columns[1],
                          make_uniform_bins(domains[0].first,
                                            domains[0].second, 16),
                          make_uniform_bins(domains[1].first,
                                            domains[1].second, 16))
        .save(step / agg::pyramid_filename(vars[0], vars[1]));
    // Shuffled unique ids so id lookups exercise real permutations.
    std::vector<std::uint64_t> ids(rows);
    for (std::size_t i = 0; i < rows; ++i) ids[i] = 1000 + i;
    for (std::size_t i = rows; i > 1; --i)
      std::swap(ids[i - 1], ids[next(state) % i]);
    write_binary(step / "id.u64", ids);
    const IdIndex id_index = IdIndex::build(ids);
    std::ofstream out(step / "id.idi", std::ios::binary);
    id_index.save(out);
  }
  std::ofstream manifest(dir / io::kManifestName);
  manifest.precision(17);
  manifest << "qdv_dataset 1\n";
  manifest << "timesteps " << timesteps << "\n";
  manifest << "variables";
  for (const auto& v : vars) manifest << ' ' << v;
  manifest << "\n";
  for (std::size_t v = 0; v < vars.size(); ++v)
    manifest << "domain " << vars[v] << ' ' << global[v].first << ' '
             << global[v].second << "\n";
  manifest.close();
  io::write_dataset_checksums(dir);
  return dir;
}

inline constexpr CompareOp kOps[] = {CompareOp::kLt, CompareOp::kLe,
                                     CompareOp::kGt, CompareOp::kGe,
                                     CompareOp::kEq};

/// A constant for @p var: mostly inside its domain, sometimes outside, and
/// on the grid of the clustered variable.
inline double random_value(std::uint64_t& state, const std::string& var) {
  if (var == "a") return uniform(state, -120.0, 120.0);
  if (var == "b") return 0.5 * static_cast<double>(next(state) % 45) - 11.0;
  return uniform(state, -10.0, 1100.0);
}

/// Random comparison leaf. Values mostly land inside the variable's domain
/// (interesting selectivities), sometimes outside (empty / full answers),
/// and for the clustered variable often exactly on a stored value so `==`
/// and boundary comparisons hit real rows.
inline QueryPtr random_leaf(std::uint64_t& state) {
  const auto& vars = variables();
  const std::string& var = vars[next(state) % vars.size()];
  const CompareOp op = kOps[next(state) % 5];
  return Query::compare(var, op, random_value(state, var));
}

/// Random Or chain of 1-3 Compare/Interval leaves on one variable: the
/// interval union that one index probe answers. Interval leaves get random
/// open/closed ends and sometimes an infinite bound; a leaf may start where
/// the previous one ended (adjacent), overlap it, or be empty.
inline QueryPtr random_union(std::uint64_t& state) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto& vars = variables();
  const std::string& var = vars[next(state) % vars.size()];
  const std::size_t leaves = 1 + next(state) % 3;
  QueryPtr out;
  double prev_hi = random_value(state, var);
  for (std::size_t i = 0; i < leaves; ++i) {
    QueryPtr leaf;
    const std::uint64_t shape = next(state) % 6;
    if (shape == 0) {
      leaf = Query::compare(var, kOps[next(state) % 5], random_value(state, var));
    } else {
      double lo = shape == 1 ? prev_hi : random_value(state, var);  // adjacent
      double hi = random_value(state, var);
      if (shape != 2 && lo > hi) std::swap(lo, hi);  // shape 2 may be empty
      if (shape == 3) lo = -kInf;
      if (shape == 4) hi = kInf;
      const bool lo_open = next(state) % 2 == 0;
      const bool hi_open = next(state) % 2 == 0;
      leaf = Query::interval(var, Interval{lo, hi, lo_open, hi_open});
      prev_hi = hi;
    }
    out = out ? Query::lor(std::move(out), std::move(leaf)) : std::move(leaf);
  }
  return out;
}

inline QueryPtr random_query(std::uint64_t& state, std::size_t depth) {
  const std::uint64_t r = next(state) % 100;
  if (depth == 0 || r < 42) return random_leaf(state);
  if (r < 50) return random_union(state);
  if (r < 72) return Query::land(random_query(state, depth - 1),
                                 random_query(state, depth - 1));
  if (r < 92) return Query::lor(random_query(state, depth - 1),
                                random_query(state, depth - 1));
  return Query::lnot(random_query(state, depth - 1));
}

/// Corrupt valid query text for the malformed-input probes: truncation,
/// garbage insertion, operator mangling, unbalanced parens, numeric junk.
/// The result may occasionally still parse — the probes assert the server
/// answers every line with a typed ok/err and stays usable, not that every
/// probe is rejected.
inline std::string malform(std::uint64_t& state, std::string text) {
  switch (next(state) % 8) {
    case 0:  // truncate mid-token
      if (!text.empty()) text.resize(next(state) % text.size());
      return text;
    case 1:  // stray comparison with no right-hand side
      return text + " && a >";
    case 2:  // unbalanced paren
      return "(" + text;
    case 3:  // garbage token splice
      text.insert(next(state) % (text.size() + 1), " @#$ ");
      return text;
    case 4:  // doubled operator
      return text + " && && " + text;
    case 5:  // non-finite / overflowing literal
      return text + (next(state) % 2 ? " && a < inf" : " && b > 1e999");
    case 6:  // unknown variable
      return text + " && nosuchvar == 1";
    default:  // bare operator soup
      return "&& || ! " + text;
  }
}

}  // namespace qdv::test::fuzz
