// End-to-end dataset layer: generate a tiny wakefield dataset, reopen it,
// and verify query evaluation (index vs scan), id lookups, the session API
// (focus counts, selected ids, tracking), and the beam phenomenology the
// examples rely on.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/custom_scan.hpp"
#include "core/engine.hpp"
#include "core/selection.hpp"
#include "core/session.hpp"
#include "core/statistics.hpp"
#include "io/checksum.hpp"
#include "io/export.hpp"
#include "sim/wakefield.hpp"
#include "test_common.hpp"

namespace {

using namespace qdv;

const std::filesystem::path& dataset_dir() {
  static const std::filesystem::path dir = [] {
    const std::filesystem::path d = qdv::test::scratch_dir("dataset_io");
    sim::WakefieldConfig cfg = sim::WakefieldConfig::preset_2d(300, /*seed=*/11);
    io::IndexConfig index_config;
    index_config.nbins = 64;
    const std::uint64_t bytes = sim::generate_dataset(cfg, d, index_config);
    CHECK(bytes > 0);
    return d;
  }();
  return dir;
}

void test_open_and_metadata() {
  const io::Dataset ds = io::Dataset::open(dataset_dir());
  CHECK_EQ(ds.num_timesteps(), 38u);
  CHECK_EQ(ds.variables().size(), 7u);
  const io::TimestepTable& table = ds.table(0);
  CHECK(table.num_rows() >= 150);
  CHECK(table.has_indices());
  CHECK_EQ(table.column("x").size(), table.num_rows());
  CHECK_EQ(table.id_column("id").size(), table.num_rows());
  const auto [lo, hi] = ds.global_domain("px");
  CHECK(hi > lo);
  CHECK(ds.disk_bytes() > 0);
  CHECK_THROWS(ds.global_domain("nope"));
  CHECK_THROWS(io::Dataset::open(dataset_dir() / "missing"));
}

void test_index_vs_scan() {
  const io::Dataset ds = io::Dataset::open(dataset_dir());
  const io::TimestepTable& table = ds.table(37);
  for (const char* text :
       {"px > 8.872e10", "px > 8.872e10 && y > 0", "px <= 1e9 || xrel >= 0.9",
        "!(px > 1e10)", "y > 0 && y < 1e-5"}) {
    const QueryPtr q = parse_query(text);
    const BitVector via_index = test::run_plan(table, q, EvalMode::kAuto);
    CHECK(via_index.to_positions() == test::scan_oracle(table, *q).to_positions());
    CHECK(via_index == test::run_plan(table, q, EvalMode::kScan));
  }
}

void test_beam_phenomenology() {
  core::ExplorationSession session = core::ExplorationSession::open(dataset_dir());
  const std::size_t t_last = session.num_timesteps() - 1;
  // The paper's selection threshold isolates both beams at the end.
  session.set_focus("px > 8.872e10");
  const std::uint64_t beams = session.focus_count(t_last);
  CHECK(beams > 0);
  CHECK(beams < session.dataset().table(t_last).num_rows() / 2);
  // Compound query narrows but stays nonzero.
  session.set_focus("px > 8.872e10 && y > 0");
  const std::uint64_t upper = session.focus_count(t_last);
  CHECK(upper > 0);
  CHECK(upper < beams);
  // Beam ids live in the reserved namespace, and both beams are present.
  session.set_focus("px > 8.872e10");
  const std::vector<std::uint64_t> ids = session.selected_ids(t_last);
  CHECK_EQ(ids.size(), beams);
  bool first = false, second = false;
  for (const std::uint64_t id : ids) {
    if (id < (1ull << 40)) continue;
    (((id - (1ull << 40)) >> 32) == 0 ? first : second) = true;
  }
  CHECK(first);
  CHECK(second);
  // No beam exists before injection at t=14.
  session.set_focus("px > 8.872e10");
  CHECK_EQ(session.focus_count(10), 0u);
}

void test_tracking() {
  core::ExplorationSession session = core::ExplorationSession::open(dataset_dir());
  const std::size_t t_last = session.num_timesteps() - 1;
  session.set_focus("px > 8.872e10");
  std::vector<std::uint64_t> ids = session.selected_ids(t_last);
  CHECK(!ids.empty());
  const core::ParticleTracks tracks = session.track(ids, 10, t_last, {"x", "px"});
  CHECK_EQ(tracks.timesteps().size(), t_last - 10 + 1);
  CHECK_EQ(tracks.count_present(0), 0u);                        // t=10: not injected
  CHECK_EQ(tracks.count_present(t_last - 10), ids.size());      // all present at end
  // Momentum ramps up after injection.
  const double px_mid = tracks.mean(20 - 10, "px");
  const double px_end = tracks.mean(t_last - 10, "px");
  CHECK(px_mid > 0);
  CHECK(px_end > px_mid);
  CHECK(std::isnan(tracks.value(0, "px", 0)));
}

void test_id_queries_match_scan() {
  const io::Dataset ds = io::Dataset::open(dataset_dir());
  const io::TimestepTable& table = ds.table(20);
  const auto id_col = table.id_column("id");
  std::vector<std::uint64_t> search;
  for (std::size_t i = 0; i < id_col.size(); i += 7) search.push_back(id_col[i]);
  const IdIndex* index = table.id_index("id");
  CHECK(index != nullptr);
  const core::CustomScan scan(table);
  CHECK(index->lookup_rows(search) == scan.find_ids(search));
}

void test_stats_and_export() {
  const io::Dataset ds = io::Dataset::open(dataset_dir());
  const io::TimestepTable& table = ds.table(37);
  const BitVector cond = test::run_plan(table, parse_query("px > 8.872e10"));
  const core::SummaryStats s = core::conditional_stats(table, "px", &cond);
  CHECK(s.count > 0);
  CHECK(s.min > 8.872e10);
  CHECK(s.mean >= s.min && s.mean <= s.max);
  const core::SummaryStats all = core::conditional_stats(table, "px");
  CHECK_EQ(all.count, table.num_rows());

  const Histogram2D h = table.engine().histogram2d("x", "px", 16, 16, &cond);
  CHECK_EQ(h.total(), s.count);
  const auto csv = qdv::test::scratch_dir("csv") / "hist.csv";
  io::export_csv(csv, h);
  CHECK(std::filesystem::file_size(csv) > 20);
}

/// A copy of the dataset without the checksum sidecars of its manifest and
/// first timestep — how a pre-checksum dataset opens, and also one whose
/// generate died before it wrote its sidecars.
std::filesystem::path unverified_copy(const std::string& name) {
  const std::filesystem::path dir = qdv::test::scratch_dir(name);
  std::filesystem::copy(dataset_dir(), dir,
                        std::filesystem::copy_options::recursive);
  std::filesystem::remove(dir / io::kChecksumSidecarName);
  std::filesystem::remove(dir / io::step_dir_name(0) / io::kChecksumSidecarName);
  return dir;
}

/// Replace every line of @p file that starts with @p prefix by
/// @p replacement (drop it when @p replacement is empty).
void edit_lines(const std::filesystem::path& file, const std::string& prefix,
                const std::string& replacement) {
  std::ifstream in(file);
  std::string text;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) line = replacement;
    if (!line.empty()) text += line + "\n";
  }
  in.close();
  std::ofstream(file) << text;
}

/// An unverified manifest must not size the table cache from its timestep
/// count: a claimed 2^27 or 2^40 steps is a typed open failure, not
/// gigabytes committed or std::bad_alloc.
void test_manifest_timestep_count_checked() {
  const std::filesystem::path dir = unverified_copy("huge_manifest");
  for (const std::uint64_t steps : {std::uint64_t{1} << 27, std::uint64_t{1} << 40}) {
    edit_lines(dir / io::kManifestName, "timesteps ",
               "timesteps " + std::to_string(steps));

    const std::uint64_t rss_before = test::peak_rss_kib();
    bool typed = false;
    try {
      (void)io::Dataset::open(dir);
    } catch (const std::runtime_error&) {
      typed = true;
    } catch (const std::exception&) {
    }
    CHECK(typed);
    CHECK(test::peak_rss_kib() - rss_before < 64u << 10);
  }
}

/// Torn or hand-edited text metadata fails typed instead of answering for
/// another table. Every field is a whole token (`rows 300x` and a
/// `timesteps 38x` manifest line reject), meta.txt holds exactly one rows
/// line, a domain needs both finite bounds in order, and a row count the
/// column and index files disagree with fails at the first query: the
/// `.bmi` is quarantined, and the scan it demotes to finds the column
/// holding more values than meta.txt declares.
void test_metadata_fields_checked() {
  const std::string px_domain = [] {
    std::ifstream in(dataset_dir() / io::step_dir_name(0) / "meta.txt");
    for (std::string line; std::getline(in, line);)
      if (line.rfind("domain px ", 0) == 0) return line;
    return std::string();
  }();
  CHECK(!px_domain.empty());
  const std::string lo_only = px_domain.substr(0, px_domain.rfind(' '));
  const std::size_t rows = io::Dataset::open(dataset_dir()).table(0).num_rows();

  struct Case {
    const char* file;  // relative to the dataset directory
    std::string prefix, replacement;
  };
  const std::string meta = io::step_dir_name(0) + "/meta.txt";
  const Case table_cases[] = {
      {meta.c_str(), "rows ", ""},
      {meta.c_str(), "rows ", "rows " + std::to_string(rows) + "x"},
      {meta.c_str(), "domain px ", lo_only},
      {meta.c_str(), "domain px ", "domain px 5 4"},
      {meta.c_str(), "domain px ", "domain px nan 4"},
  };
  for (const Case& c : table_cases) {
    const std::filesystem::path dir = unverified_copy("bad_meta");
    edit_lines(dir / c.file, c.prefix, c.replacement);
    const io::Dataset ds = io::Dataset::open(dir);
    CHECK_THROWS(ds.table(0));
  }

  const std::filesystem::path dir = unverified_copy("bad_meta");
  edit_lines(dir / io::kManifestName, "timesteps ",
             "timesteps " + std::to_string(io::Dataset::open(dataset_dir())
                                               .num_timesteps()) + "x");
  CHECK_THROWS(io::Dataset::open(dir));

  // rows 10: an indexed count must not answer "N of 10" from the
  // full-size index.
  const std::filesystem::path small = unverified_copy("bad_meta_rows");
  edit_lines(small / meta, "rows ", "rows 10");
  const core::Engine engine = core::Engine::open(small);
  const io::TimestepTable& table = engine.dataset().table(0);
  CHECK_EQ(table.num_rows(), 10u);
  CHECK_THROWS(engine.select("px >= 0").count(0));
  CHECK(table.index_quarantined("px"));
  CHECK_THROWS(table.column("px"));
}

/// QDV_MEMORY_BUDGET is one whole count of bytes: `64M` (which atoll read
/// as 64 bytes) is a typed error naming the variable, not a silent budget.
void test_memory_budget_env_checked() {
  const char* saved = std::getenv("QDV_MEMORY_BUDGET");
  const std::string restore = saved ? saved : "";
  ::setenv("QDV_MEMORY_BUDGET", "64M", 1);
  bool named = false;
  try {
    (void)io::Dataset::open(dataset_dir());
  } catch (const std::invalid_argument& e) {
    named = std::string(e.what()).find("QDV_MEMORY_BUDGET") != std::string::npos;
  }
  CHECK(named);
  ::setenv("QDV_MEMORY_BUDGET", "32768", 1);
  CHECK_EQ(io::Dataset::open(dataset_dir()).memory_budget()->budget(), 32768u);
  if (saved)
    ::setenv("QDV_MEMORY_BUDGET", restore.c_str(), 1);
  else
    ::unsetenv("QDV_MEMORY_BUDGET");
}

}  // namespace

int main() {
  test_open_and_metadata();
  test_index_vs_scan();
  test_beam_phenomenology();
  test_tracking();
  test_id_queries_match_scan();
  test_stats_and_export();
  test_manifest_timestep_count_checked();
  test_metadata_fields_checked();
  test_memory_budget_env_checked();
  return qdv::test::finish("test_dataset_io");
}
