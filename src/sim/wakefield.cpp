#include "sim/wakefield.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "agg/pyramid.hpp"
#include "bitmap/histogram.hpp"
#include "io/checksum.hpp"

namespace qdv::sim {

namespace {

constexpr std::uint64_t kBeamIdBase = 1ull << 40;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic uniform in [0, 1) keyed by (seed, tag, index).
double uniform(std::uint64_t seed, std::uint64_t tag, std::uint64_t index) {
  return static_cast<double>(
             splitmix64(seed ^ splitmix64(tag * 0x2545F4914F6CDD1Dull + index)) >> 11) *
         0x1.0p-53;
}

/// Deterministic uniform in [-1, 1).
double symmetric(std::uint64_t seed, std::uint64_t tag, std::uint64_t index) {
  return 2.0 * uniform(seed, tag, index) - 1.0;
}

struct Columns {
  std::vector<double> x, y, z, px, py, pz, xrel;
  std::vector<std::uint64_t> id;

  void push(double xv, double yv, double zv, double pxv, double pyv, double pzv,
            double xrelv, std::uint64_t idv) {
    x.push_back(xv);
    y.push_back(yv);
    z.push_back(zv);
    px.push_back(pxv);
    py.push_back(pyv);
    pz.push_back(pzv);
    xrel.push_back(xrelv);
    id.push_back(idv);
  }
};

template <typename T>
void write_binary(const std::filesystem::path& file, const std::vector<T>& data) {
  std::ofstream out(file, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + file.string());
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(T)));
  if (!out) throw std::runtime_error("short write to " + file.string());
}

std::pair<double, double> minmax_of(const std::vector<double>& v) {
  if (v.empty()) return {0.0, 0.0};
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return {*lo, *hi};
}

}  // namespace

std::size_t apply_particle_cap(std::size_t particles) {
  if (const char* env = std::getenv("QDV_MAX_PARTICLES")) {
    const long long cap = std::atoll(env);
    if (cap > 0)
      particles = std::min(particles, static_cast<std::size_t>(cap));
  }
  return std::max<std::size_t>(particles, 200);
}

WakefieldConfig WakefieldConfig::preset_2d(std::size_t particles,
                                           std::uint64_t seed) {
  WakefieldConfig cfg;
  cfg.num_particles = apply_particle_cap(particles);
  cfg.num_timesteps = 38;
  cfg.seed = seed;
  cfg.dims = 2;
  const std::size_t beam = std::max<std::size_t>(16, cfg.num_particles / 150);
  // First beam: injected into the first wake period at t=14, dephases after
  // t=27 (outruns the wave), low momentum spread.
  cfg.beams.push_back({beam, 14, 8.5e9, 27, 1.5e9, 0.74, 0.003, 0.02, 0.25, 0.08});
  // Second beam: the t=15 stragglers in the second period; keeps
  // accelerating through the end of the run, larger spread.
  cfg.beams.push_back(
      {std::max<std::size_t>(16, beam * 2 / 3), 15, 6.0e9, ~std::size_t{0}, 0.0,
       0.45, 0.0, 0.06, 0.40, 0.03});
  return cfg;
}

WakefieldConfig WakefieldConfig::preset_3d(std::size_t particles,
                                           std::uint64_t seed) {
  WakefieldConfig cfg;
  cfg.num_particles = apply_particle_cap(particles);
  cfg.num_timesteps = 16;
  cfg.seed = seed + 1;
  cfg.dims = 3;
  // First-bucket beam: injected at t=9, px(12) ~ 6.8e10 > the paper's
  // 4.856e10 selection threshold, far right in the window.
  cfg.beams.push_back({std::max<std::size_t>(16, cfg.num_particles / 120), 9,
                       1.7e10, ~std::size_t{0}, 0.0, 0.78, 0.002, 0.03, 0.2, 0.06});
  // Slower second-period group injected at t=10; px(12) ~ 3.6e10 stays
  // below the selection threshold.
  cfg.beams.push_back({std::max<std::size_t>(16, cfg.num_particles / 400), 10,
                       1.2e10, ~std::size_t{0}, 0.0, 0.45, 0.0, 0.05, 0.35, 0.02});
  return cfg;
}

WakefieldConfig WakefieldConfig::preset_bench(std::size_t particles,
                                              std::size_t timesteps,
                                              std::uint64_t seed) {
  WakefieldConfig cfg;
  cfg.num_particles = apply_particle_cap(particles);
  cfg.num_timesteps = std::max<std::size_t>(1, timesteps);
  cfg.seed = seed + 2;
  cfg.dims = 3;
  cfg.tail_fraction = 0.10;  // denser tail: usable hit-count sweeps
  const std::size_t beam = std::max<std::size_t>(300, cfg.num_particles / 250);
  cfg.beams.push_back(
      {beam, 0, 1.2e9, ~std::size_t{0}, 0.0, 0.75, 0.0, 0.02, 0.25, 0.0});
  cfg.beams.push_back(
      {beam, 0, 0.9e9, ~std::size_t{0}, 0.0, 0.45, 0.0, 0.05, 0.35, 0.0});
  return cfg;
}

namespace {

/// Background momentum: thermal bulk with a bounded heavy tail. Constant
/// per particle (the plasma is at rest; the window moves).
double background_px(const WakefieldConfig& cfg, std::uint64_t j) {
  if (uniform(cfg.seed, 11, j) < cfg.tail_fraction) {
    const double e = -std::log(1.0 - uniform(cfg.seed, 12, j));
    return std::min(cfg.px_tail_scale * e, cfg.px_tail_max);
  }
  const double e = std::min(4.0, -std::log(1.0 - uniform(cfg.seed, 13, j)));
  return cfg.px_thermal * e;
}

double beam_px_base(const BeamSpec& beam, std::size_t t) {
  const double steps = static_cast<double>(t - beam.inject_step + 1);
  double px = beam.ramp * steps;
  if (t > beam.peak_step)
    px = beam.ramp * static_cast<double>(beam.peak_step - beam.inject_step + 1) -
         beam.decline * static_cast<double>(t - beam.peak_step);
  return px;
}

Columns generate_step(const WakefieldConfig& cfg, std::size_t t) {
  Columns c;
  const double w0 = static_cast<double>(t) * cfg.window_step;
  const double w1 = w0 + cfg.window_width;
  const double density =
      static_cast<double>(cfg.num_particles) / cfg.window_width;
  // Background plasma: particle j sits at a fixed, roughly index-ordered
  // position; only the slice inside the moving window is materialized.
  const auto first =
      static_cast<std::uint64_t>(std::max(0.0, std::floor(w0 * density) - 2.0));
  const auto last = static_cast<std::uint64_t>(std::ceil(w1 * density) + 2.0);
  for (std::uint64_t j = first; j <= last; ++j) {
    const double x = (static_cast<double>(j) + uniform(cfg.seed, 1, j)) / density;
    if (x < w0 || x >= w1) continue;
    const double y = symmetric(cfg.seed, 2, j) * cfg.y_max;
    const double z = symmetric(cfg.seed, 3, j) * cfg.z_max *
                     (cfg.dims == 3 ? 1.0 : 0.02);
    const double px = background_px(cfg, j);
    const double py = symmetric(cfg.seed, 4, j) * cfg.px_thermal * 0.2;
    const double pz = symmetric(cfg.seed, 5, j) * cfg.px_thermal * 0.2 *
                      (cfg.dims == 3 ? 1.0 : 0.1);
    c.push(x, y, z, px, py, pz, (x - w0) / cfg.window_width, j);
  }
  // Trapped beams ride the window.
  for (std::size_t b = 0; b < cfg.beams.size(); ++b) {
    const BeamSpec& beam = cfg.beams[b];
    if (t < beam.inject_step) continue;
    const double steps_in = static_cast<double>(t - beam.inject_step);
    const double px_base = beam_px_base(beam, t);
    const double xrel_center = beam.xrel0 + beam.xrel_drift * steps_in;
    const double y_sigma =
        cfg.y_max * beam.y_sigma0 * std::max(0.3, 1.0 - beam.y_shrink * steps_in);
    for (std::uint64_t k = 0; k < beam.count; ++k) {
      const std::uint64_t key = (static_cast<std::uint64_t>(b) << 32) | k;
      const double px = px_base * (1.0 + beam.px_spread * symmetric(cfg.seed, 21, key));
      const double xrel =
          std::clamp(xrel_center + 0.015 * symmetric(cfg.seed, 22, key), 0.0, 1.0);
      const double x = w0 + xrel * cfg.window_width;
      const double y = y_sigma * symmetric(cfg.seed, 23, key);
      const double z = (cfg.dims == 3 ? y_sigma : 0.02 * cfg.z_max) *
                       symmetric(cfg.seed, 24, key);
      const double py = 0.01 * px * symmetric(cfg.seed, 25, key);
      const double pz = 0.01 * px * symmetric(cfg.seed, 26, key) *
                        (cfg.dims == 3 ? 1.0 : 0.1);
      c.push(x, y, z, px, py, pz, xrel,
             kBeamIdBase + (static_cast<std::uint64_t>(b) << 32) + k);
    }
  }
  return c;
}

}  // namespace

std::uint64_t generate_dataset(const WakefieldConfig& config,
                               const std::filesystem::path& dir,
                               const io::IndexConfig& index_config) {
  if (config.num_timesteps == 0)
    throw std::invalid_argument("generate_dataset: no timesteps");
  std::filesystem::create_directories(dir);
  const std::vector<std::string> variables = {"x",  "y",  "z",   "px",
                                              "py", "pz", "xrel"};
  std::vector<std::pair<double, double>> global(
      variables.size(), {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()});
  for (std::size_t t = 0; t < config.num_timesteps; ++t) {
    const Columns c = generate_step(config, t);
    const std::filesystem::path step_dir = dir / io::step_dir_name(t);
    std::filesystem::create_directories(step_dir);
    const std::vector<const std::vector<double>*> column_data = {
        &c.x, &c.y, &c.z, &c.px, &c.py, &c.pz, &c.xrel};
    std::ofstream meta(step_dir / "meta.txt");
    meta.precision(17);
    meta << "rows " << c.id.size() << "\n";
    for (std::size_t v = 0; v < variables.size(); ++v) {
      const auto [lo, hi] = minmax_of(*column_data[v]);
      meta << "domain " << variables[v] << ' ' << lo << ' ' << hi << "\n";
      global[v].first = std::min(global[v].first, lo);
      global[v].second = std::max(global[v].second, hi);
      write_binary(step_dir / (variables[v] + ".f64"), *column_data[v]);
      if (index_config.build_value_indices && index_config.nbins > 0) {
        const BitmapIndex index = BitmapIndex::build(
            *column_data[v],
            make_bins(lo, hi, {}, index_config.nbins, BinningMode::kUniform));
        std::ofstream out(step_dir / (variables[v] + ".bmi"), std::ios::binary);
        index.save(out);
      }
      if (index_config.build_pyramids && index_config.nbins > 0) {
        // Same domain rule as the .bmi above, so pyramid leaves and index
        // bins describe the same domain; the leaf count rounds up to the
        // power of two the level tree needs.
        const std::size_t leaf = std::bit_ceil(index_config.nbins);
        agg::Pyramid::build1d(
            *column_data[v], make_bins(lo, hi, {}, leaf, BinningMode::kUniform))
            .save(step_dir / agg::pyramid_filename(variables[v]));
      }
    }
    if (index_config.build_pyramids && index_config.pyramid_pair_bins > 0) {
      const std::size_t leaf = std::bit_ceil(index_config.pyramid_pair_bins);
      for (const auto& [a, b] : index_config.pyramid_pairs) {
        const auto find = [&](const std::string& name)
            -> const std::vector<double>* {
          for (std::size_t v = 0; v < variables.size(); ++v)
            if (variables[v] == name) return column_data[v];
          return nullptr;
        };
        const std::vector<double>* da = find(a);
        const std::vector<double>* db = find(b);
        if (da == nullptr || db == nullptr) continue;
        const auto edges = [&](const std::vector<double>& col) {
          const auto [lo, hi] = minmax_of(col);
          return make_bins(lo, hi, {}, leaf, BinningMode::kUniform);
        };
        agg::Pyramid::build2d(*da, *db, edges(*da), edges(*db))
            .save(step_dir / agg::pyramid_filename(a, b));
      }
    }
    write_binary(step_dir / "id.u64", c.id);
    if (index_config.build_id_index) {
      const IdIndex index = IdIndex::build(c.id);
      std::ofstream out(step_dir / "id.idi", std::ios::binary);
      index.save(out);
    }
  }
  std::ofstream manifest(dir / io::kManifestName);
  manifest << "qdv_dataset 1\n";
  manifest << "timesteps " << config.num_timesteps << "\n";
  manifest << "variables";
  for (const std::string& v : variables) manifest << ' ' << v;
  manifest << "\n";
  manifest.precision(17);
  for (std::size_t v = 0; v < variables.size(); ++v)
    manifest << "domain " << variables[v] << ' ' << global[v].first << ' '
             << global[v].second << "\n";
  manifest.close();
  io::write_dataset_checksums(dir);
  std::uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir))
    if (entry.is_regular_file()) bytes += entry.file_size();
  return bytes;
}

}  // namespace qdv::sim
