// qdv_tool — command-line front end to the library.
//
// Subcommands:
//   generate <dir> [--preset 2d|3d|bench] [--particles N] [--timesteps N]
//            [--seed S] [--index-bins N] [--no-pyramids] [--pair-bins N]
//   info     <dir>
//   query    <dir> -t <timestep> -q "<query>" [--scan] [--budget <MiB>]
//            [--count-only] [--stats]
//   explain  <dir> -q "<query>"
//   histogram <dir> -t <timestep> -x <var> -y <var> [--bins N] [--adaptive]
//            [-q "<query>"] [--csv <file>]
//   stats    <dir> -t <timestep> -v <var> [-q "<query>"]
//   track    <dir> -q "<query>" --select-at <t> [--from <t>] [--to <t>]
//            [--vars a,b,c] [--limit N]
//   render   <dir> -t <timestep> --axes a,b,c [-q "<query>"] [--bins N]
//            [--gamma G] -o <out.ppm>
//   serve    <dir> --socket <path> [--concurrency N] [--no-cache]
//            [--budget <MiB>]
//   bombard  <dir> [--socket <path>] [--clients N] [--requests M]
//            [--seed S] [--dup F] [--hot N] [--json <file>]
//            [--chaos] [--chaos-spec <fault-spec>]
//   fsck     <dir> [--verbose]
//   corrupt  <dir> --file <rel-path> [--offset N | --tail N] [--xor B]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "core/statistics.hpp"
#include "fault/fault.hpp"
#include "io/checksum.hpp"
#include "io/export.hpp"
#include "parallel/prefetch.hpp"
#include "sim/wakefield.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"

namespace {

using namespace qdv;

/// Tiny argument cursor: positional + --flag [value] parsing.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  std::optional<std::string> option(const std::string& name) const {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i)
      if (args_[i] == name) return args_[i + 1];
    return std::nullopt;
  }

  bool flag(const std::string& name) const {
    for (const std::string& a : args_)
      if (a == name) return true;
    return false;
  }

  std::string option_or(const std::string& name, const std::string& fallback) const {
    return option(name).value_or(fallback);
  }

  // Strict numeric options via the wire parsers: std::stoull/std::stod
  // accept prefixes ("8x" parses as 8) and throw bare std::invalid_argument
  // on garbage; these reject the whole token with a message naming the
  // flag.
  std::size_t size_option(const std::string& name, std::size_t fallback) const {
    const auto v = option(name);
    if (!v) return fallback;
    std::size_t n = 0;
    if (!svc::parse_size(*v, n))
      throw std::runtime_error("bad value for " + name + ": '" + *v +
                               "' (need a non-negative integer)");
    return n;
  }

  double double_option(const std::string& name, double fallback) const {
    const auto v = option(name);
    if (!v) return fallback;
    double f = 0.0;
    if (!svc::parse_double(*v, f))
      throw std::runtime_error("bad value for " + name + ": '" + *v +
                               "' (need a finite number)");
    return f;
  }

  /// First `--` token not in @p known, so a misspelled or retired option
  /// fails loudly instead of being ignored.
  std::optional<std::string> unknown_option(
      std::initializer_list<std::string_view> known) const {
    for (const std::string& a : args_)
      if (a.rfind("--", 0) == 0 &&
          std::find(known.begin(), known.end(), a) == known.end())
        return a;
    return std::nullopt;
  }

 private:
  std::vector<std::string> args_;
};

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// Default open options with `--budget <MiB>` applied. 2^44 MiB and up
/// would wrap the byte count (2^44 MiB shifts to a 0-byte budget), so they
/// are a bad value, rejected before any dataset opens.
io::OpenOptions open_options(const Args& args) {
  io::OpenOptions options = io::default_open_options();
  if (const auto v = args.option("--budget")) {
    const std::uint64_t mib = args.size_option("--budget", 0);
    if (mib >= std::uint64_t{1} << 44)
      throw std::runtime_error("bad value for --budget: '" + *v +
                               "' (need fewer than 2^44 MiB)");
    options.budget_bytes = mib << 20;
  }
  return options;
}

int cmd_generate(const std::string& dir, const Args& args) {
  const std::string preset = args.option_or("--preset", "2d");
  const std::size_t particles = args.size_option("--particles", 100000);
  const std::uint64_t seed = args.size_option("--seed", 42);
  sim::WakefieldConfig cfg;
  if (preset == "2d") {
    cfg = sim::WakefieldConfig::preset_2d(particles, seed);
  } else if (preset == "3d") {
    cfg = sim::WakefieldConfig::preset_3d(particles, seed);
  } else if (preset == "bench") {
    cfg = sim::WakefieldConfig::preset_bench(particles,
                                             args.size_option("--timesteps", 10), seed);
  } else {
    std::cerr << "unknown preset '" << preset << "' (use 2d | 3d | bench)\n";
    return 2;
  }
  if (args.option("--timesteps") && preset != "bench")
    cfg.num_timesteps = args.size_option("--timesteps", cfg.num_timesteps);
  io::IndexConfig index_config;
  index_config.nbins = args.size_option("--index-bins", 1024);
  if (args.flag("--no-pyramids")) index_config.build_pyramids = false;
  index_config.pyramid_pair_bins =
      args.size_option("--pair-bins", index_config.pyramid_pair_bins);
  const std::uint64_t bytes = sim::generate_dataset(cfg, dir, index_config);
  std::cout << "wrote " << cfg.num_timesteps << " timesteps, " << (bytes >> 20)
            << " MiB (data + indices) to " << dir << "\n";
  return 0;
}

int cmd_info(const std::string& dir) {
  const io::Dataset ds = io::Dataset::open(dir);
  std::cout << "dataset:    " << dir << "\n";
  std::cout << "timesteps:  " << ds.num_timesteps() << "\n";
  std::cout << "variables: ";
  for (const auto& v : ds.variables()) std::cout << ' ' << v;
  std::cout << "\n";
  std::uint64_t rows = 0;
  for (std::size_t t = 0; t < ds.num_timesteps(); ++t) rows += ds.table(t).num_rows();
  std::cout << "records:    " << rows << " total ("
            << rows / std::max<std::size_t>(1, ds.num_timesteps()) << " per step)\n";
  std::cout << "disk:       " << (ds.disk_bytes() >> 20) << " MiB\n";
  std::cout << "indices:    " << (ds.table(0).has_indices() ? "yes" : "no") << "\n";
  return 0;
}

int cmd_fsck(const std::string& dir, const Args& args) {
  const io::FsckReport report = io::fsck_dataset(dir);
  const bool verbose = args.flag("--verbose");
  for (const io::FsckEntry& e : report.entries) {
    const char* status = e.status == io::FsckEntry::Status::kOk ? "ok"
                         : e.status == io::FsckEntry::Status::kFailed
                             ? "FAILED"
                             : "unverified";
    if (!verbose && e.status == io::FsckEntry::Status::kOk) continue;
    std::cout << "  " << status << "  " << e.rel;
    if (!e.detail.empty()) std::cout << "  (" << e.detail << ")";
    std::cout << "\n";
  }
  std::cout << "fsck " << dir << ": " << report.ok << " ok, " << report.failed
            << " failed, " << report.unverified << " unverified ("
            << report.sections_checked << " sections checked)\n";
  return report.damaged() ? 1 : 0;
}

/// Deterministic single-byte damage for integrity drills: flip one byte of
/// one artifact, leaving the checksum sidecars untouched so fsck and the
/// degradation paths see a genuine mismatch. Exercised by the chaos-smoke
/// CI job; never useful in production.
int cmd_corrupt(const std::string& dir, const Args& args) {
  const auto rel = args.option("--file");
  if (!rel) {
    std::cerr << "corrupt: missing --file <path relative to dataset root>\n";
    return 2;
  }
  const std::filesystem::path path = std::filesystem::path(dir) / *rel;
  if (!std::filesystem::is_regular_file(path)) {
    std::cerr << "corrupt: no such file: " << path << "\n";
    return 2;
  }
  const std::uint64_t size = std::filesystem::file_size(path);
  std::uint64_t offset = args.size_option("--offset", 0);
  if (args.option("--tail"))
    offset = size - std::min<std::uint64_t>(size, args.size_option("--tail", 0));
  if (offset >= size) {
    std::cerr << "corrupt: offset " << offset << " out of range (file is "
              << size << " bytes)\n";
    return 2;
  }
  const unsigned mask =
      static_cast<unsigned>(args.size_option("--xor", 0x40)) & 0xff;
  if (mask == 0) {
    std::cerr << "corrupt: --xor 0 would be a no-op\n";
    return 2;
  }
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.get(byte);
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(static_cast<unsigned char>(byte) ^ mask));
  file.flush();
  if (!file) {
    std::cerr << "corrupt: write failed on " << path << "\n";
    return 1;
  }
  std::cout << "flipped byte " << offset << " of " << *rel << " (xor 0x"
            << std::hex << mask << std::dec << ")\n";
  return 0;
}

int cmd_query(const std::string& dir, const Args& args) {
  if (const auto bad = args.unknown_option(
          {"--scan", "--budget", "--count-only", "--stats"})) {
    std::cerr << "query: unknown option " << *bad << "\n";
    return 2;
  }
  const auto text = args.option("-q");
  if (!text) {
    std::cerr << "query: missing -q \"<query>\"\n";
    return 2;
  }
  const std::size_t t = args.size_option("-t", 0);
  const core::Engine engine(
      io::Dataset::open(dir, open_options(args)),
      args.flag("--scan") ? EvalMode::kScan : EvalMode::kAuto);
  const core::Selection selection = engine.select(*text);
  const io::TimestepTable& table = engine.dataset().table(t);
  const auto hits = selection.bits(t);
  std::cout << hits->count() << " of " << table.num_rows() << " records match at t="
            << t << "\n";
  if (!args.flag("--count-only")) {
    std::size_t shown = 0;
    const auto ids = table.id_column("id");
    hits->for_each_set([&](std::uint64_t row) {
      if (shown < 10) std::cout << "  row " << row << "  id " << ids[row] << "\n";
      ++shown;
    });
    if (shown > 10) std::cout << "  ... " << (shown - 10) << " more\n";
  }
  if (args.flag("--stats")) {
    const core::EngineStats s = engine.stats();
    std::cout << "cache: " << s.hits << " hits, " << s.misses << " misses, "
              << s.entries << " entries, " << s.bytes << " bytes\n";
    std::cout << "memory: resident " << s.resident_bytes << " B";
    if (s.budget_bytes == io::MemoryBudget::kUnlimited)
      std::cout << " (no budget)";
    else
      std::cout << " / budget " << s.budget_bytes << " B";
    std::cout << ", columns " << s.column_bytes << " B, segments "
              << s.segment_bytes << " B\n";
    std::cout << "io: loaded " << s.loaded_bytes << " B total, "
              << s.io_evictions << " evictions\n";
    std::cout << "simd: " << s.simd_isa << " (positions "
              << s.positions_vector_calls << " vector / "
              << s.positions_scalar_calls << " scalar, hist1d "
              << s.hist1d_vector_calls << " vector / " << s.hist1d_scalar_calls
              << " scalar, hist2d " << s.hist2d_vector_calls << " vector / "
              << s.hist2d_scalar_calls << " scalar)\n";
    std::cout << "ranges: " << s.range_probes << " probed (" << s.probe_words
              << " words), " << s.range_scans << " scanned (" << s.scan_rows
              << " rows), " << s.probe_segments << " segments pinned\n";
  }
  return 0;
}

int cmd_explain(const std::string& dir, const Args& args) {
  const auto text = args.option("-q");
  if (!text) {
    std::cerr << "explain: missing -q \"<query>\"\n";
    return 2;
  }
  const core::Engine engine = core::Engine::open(dir);
  const core::Selection selection = engine.select(*text);
  std::cout << "input:     " << *text << "\n" << selection.explain();
  return 0;
}

int cmd_histogram(const std::string& dir, const Args& args) {
  const auto vx = args.option("-x");
  const auto vy = args.option("-y");
  if (!vx || !vy) {
    std::cerr << "histogram: missing -x/-y variables\n";
    return 2;
  }
  const core::Engine engine = core::Engine::open(dir);
  const std::size_t t = args.size_option("-t", 0);
  const std::size_t bins = args.size_option("--bins", 64);
  core::Selection selection = engine.all();
  if (const auto q = args.option("-q")) selection = engine.select(*q);
  const Histogram2D h = selection.histogram2d(
      t, *vx, *vy, bins, bins,
      args.flag("--adaptive") ? BinningMode::kAdaptive : BinningMode::kUniform);
  std::cout << "histogram " << *vx << " x " << *vy << " @ t=" << t << ": "
            << h.total() << " records, " << h.nonempty_bins() << "/"
            << h.nx() * h.ny() << " bins occupied, max count " << h.max_count()
            << "\n";
  if (const auto csv = args.option("--csv")) {
    io::export_csv(std::filesystem::path(*csv), h);
    std::cout << "wrote " << *csv << "\n";
  }
  return 0;
}

int cmd_stats(const std::string& dir, const Args& args) {
  const auto var = args.option("-v");
  if (!var) {
    std::cerr << "stats: missing -v <variable>\n";
    return 2;
  }
  const core::Engine engine = core::Engine::open(dir);
  const std::size_t t = args.size_option("-t", 0);
  core::Selection selection = engine.all();
  if (const auto q = args.option("-q")) selection = engine.select(*q);
  const core::SummaryStats s = selection.summary(t, *var);
  std::cout << *var << " @ t=" << t
            << (selection.selects_all() ? "" : " | " + selection.query()->to_string())
            << "\n";
  std::cout << "  count  " << s.count << "\n  min    " << s.min << "\n  max    "
            << s.max << "\n  mean   " << s.mean << "\n  stddev " << s.stddev << "\n";
  return 0;
}

int cmd_track(const std::string& dir, const Args& args) {
  const auto text = args.option("-q");
  if (!text) {
    std::cerr << "track: missing -q \"<selection query>\"\n";
    return 2;
  }
  core::ExplorationSession session = core::ExplorationSession::open(dir);
  const std::size_t t_sel =
      args.size_option("--select-at", session.num_timesteps() - 1);
  session.set_focus(*text);
  std::vector<std::uint64_t> ids = session.selected_ids(t_sel);
  const std::size_t limit = args.size_option("--limit", 1000);
  if (ids.size() > limit) ids.resize(limit);
  const std::size_t t_from = args.size_option("--from", 0);
  const std::size_t t_to = args.size_option("--to", session.num_timesteps() - 1);
  const std::vector<std::string> vars =
      split_csv(args.option_or("--vars", "x,px"));
  // Stream the trace: a background prefetcher maps id indices and tracked
  // columns ahead of the sequential track loop. Its bounded queue caps the
  // look-ahead distance, and tracking never probes the bitmap indices, so
  // their (pinned) segment directories are not opened.
  par::Prefetcher prefetch(session.dataset());
  for (std::size_t t = t_from; t <= t_to && t < session.num_timesteps(); ++t) {
    std::vector<std::string> wanted = vars;
    wanted.push_back("id");
    if (!prefetch.request(t, std::move(wanted), /*value_indices=*/false)) break;
  }
  const core::ParticleTracks tracks = session.track(ids, t_from, t_to, vars);
  std::cout << "tracking " << ids.size() << " particles selected at t=" << t_sel
            << " over t=[" << t_from << ", " << t_to << "]\n";
  std::cout << "t,present";
  for (const auto& v : vars) std::cout << ",mean_" << v;
  std::cout << "\n";
  for (std::size_t ti = 0; ti < tracks.timesteps().size(); ++ti) {
    std::cout << tracks.timesteps()[ti] << ',' << tracks.count_present(ti);
    for (const auto& v : vars) std::cout << ',' << tracks.mean(ti, v);
    std::cout << "\n";
  }
  return 0;
}

int cmd_render(const std::string& dir, const Args& args) {
  const auto axes_text = args.option("--axes");
  const auto out = args.option("-o");
  if (!axes_text || !out) {
    std::cerr << "render: missing --axes a,b,c or -o <out.ppm>\n";
    return 2;
  }
  core::ExplorationSession session = core::ExplorationSession::open(dir);
  const std::size_t t = args.size_option("-t", 0);
  if (const auto q = args.option("-q")) session.set_focus(*q);
  core::PcViewOptions options;
  options.context_bins = args.size_option("--bins", 120);
  options.focus_bins = args.size_option("--focus-bins", 256);
  options.context_gamma = args.double_option("--gamma", 1.0);
  const render::Image img =
      session.render_parallel_coordinates(t, split_csv(*axes_text), options);
  img.write_ppm(*out);
  std::cout << "wrote " << *out << " (" << img.width() << "x" << img.height()
            << ")\n";
  return 0;
}

svc::ServiceConfig service_config_from(const Args& args) {
  svc::ServiceConfig config;
  config.max_concurrency = args.size_option("--concurrency", 0);
  if (args.flag("--no-cache")) config.cache_results = false;
  return config;
}

core::Engine open_service_engine(const std::string& dir, const Args& args) {
  return core::Engine(io::Dataset::open(dir, open_options(args)));
}

int cmd_serve(const std::string& dir, const Args& args) {
  if (const auto bad = args.unknown_option(
          {"--socket", "--concurrency", "--no-cache", "--budget"})) {
    std::cerr << "serve: unknown option " << *bad << "\n";
    return 2;
  }
  const auto socket = args.option("--socket");
  if (!socket) {
    std::cerr << "serve: missing --socket <path>\n";
    return 2;
  }
  svc::QueryService service(open_service_engine(dir, args),
                            service_config_from(args));
  svc::SocketServer server(service, *socket);
  server.start();
  std::cout << "serving " << dir << " on " << *socket
            << " (line protocol; Ctrl-C to stop)\n";
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
}

/// Seeded mixed read workload: count / histogram / summary requests over a
/// hot pool (shared, coalescible) and cold unique thresholds.
class BombardWorkload {
 public:
  BombardWorkload(const io::Dataset& dataset, std::uint64_t seed,
                  double dup_fraction, std::size_t hot_pool)
      : timesteps_(dataset.num_timesteps()), dup_fraction_(dup_fraction) {
    for (const char* var : {"px", "x", "y"}) {
      if (std::find(dataset.variables().begin(), dataset.variables().end(),
                    var) != dataset.variables().end())
        domains_.emplace_back(var, dataset.global_domain(var));
    }
    if (domains_.empty())
      domains_.emplace_back(dataset.variables().front(),
                            dataset.global_domain(dataset.variables().front()));
    std::uint64_t state = seed * 2654435761u + 1;
    for (std::size_t i = 0; i < hot_pool; ++i)
      hot_.push_back(make_request(state, /*hot_index=*/static_cast<long>(i)));
  }

  /// The i-th request of @p client (deterministic in (seed, client, i)).
  svc::WireRequest request(std::uint64_t client_seed, std::size_t i) const {
    std::uint64_t state = client_seed * 1099511628211ull + i * 2654435761u + 17;
    if (!hot_.empty() &&
        static_cast<double>(next(state) % 1000) < dup_fraction_ * 1000.0)
      return hot_[next(state) % hot_.size()];
    return make_request(state, /*hot_index=*/-1);
  }

 private:
  static std::uint64_t next(std::uint64_t& state) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }

  svc::WireRequest make_request(std::uint64_t& state, long hot_index) const {
    svc::WireRequest wire;
    svc::Request& r = wire.request;
    r.timestep = next(state) % std::max<std::size_t>(1, timesteps_);
    const auto& [var, domain] = domains_[next(state) % domains_.size()];
    // Cold thresholds get a fine-grained fraction so repeats are unlikely;
    // hot ones are quantized by pool slot.
    const double frac =
        hot_index >= 0
            ? 0.1 + 0.8 * static_cast<double>(hot_index) /
                        static_cast<double>(std::max(1l, hot_index + 1))
            : static_cast<double>(next(state) % 100000) / 100000.0;
    const double threshold = domain.first + frac * (domain.second - domain.first);
    r.query = var + " > " + qdv::format_double(threshold);
    switch (next(state) % 10) {
      case 0: case 1: case 2: case 3: case 4:
        r.kind = svc::RequestKind::kCount;
        break;
      case 5: case 6: case 7:
        r.kind = svc::RequestKind::kHistogram1D;
        r.var_x = domains_.front().first;
        r.nxbins = 64;
        break;
      case 8:
        r.kind = svc::RequestKind::kHistogram2D;
        r.var_x = domains_.front().first;
        r.var_y = domains_.back().first;
        r.nxbins = r.nybins = 32;
        break;
      default:
        r.kind = svc::RequestKind::kSummary;
        r.var_x = domains_.front().first;
        break;
    }
    r.priority = next(state) % 4 == 0 ? svc::Priority::kInteractive
                                      : svc::Priority::kNormal;
    return wire;
  }

  std::size_t timesteps_;
  double dup_fraction_;
  std::vector<std::pair<std::string, std::pair<double, double>>> domains_;
  std::vector<svc::WireRequest> hot_;
};

/// Load plus verification, not timing (bench/qdvbench times the wire): the
/// seeded mixed stream through a real socket, optionally under injected
/// faults, then a differential check of served counts against a direct
/// engine. Exits 1 on any error reply or verify mismatch.
int cmd_bombard(const std::string& dir, const Args& args) {
  if (const auto bad = args.unknown_option(
          {"--socket", "--clients", "--requests", "--seed",
           "--dup", "--hot", "--json", "--chaos", "--chaos-spec",
           "--concurrency", "--no-cache", "--budget"})) {
    std::cerr << "bombard: unknown option " << *bad
              << " (latency scenarios live in bench/qdvbench)\n";
    return 2;
  }
  const std::size_t clients = args.size_option("--clients", 8);
  const std::size_t requests = args.size_option("--requests", 200);
  const std::uint64_t seed = args.size_option("--seed", 42);
  const double dup = args.double_option("--dup", 0.5);
  const std::size_t hot_pool = args.size_option("--hot", 8);

  // --chaos: seeded fault injection on the service socket. The default spec
  // holds only the faults a request survives: EINTR (the transfer loop
  // retries) and latency. The socket lines carry no checksums and a reset
  // drops the connection, so a flip or a reset would fail the request, not
  // test its recovery.
  const bool chaos = args.flag("--chaos");
  const std::string chaos_spec = args.option_or(
      "--chaos-spec", "seed:" + std::to_string(seed) +
                          ",spec:svc.eintr@0.05,spec:svc.delay@0.01");
  if (chaos) {
    std::string error;
    if (!fault::configure(chaos_spec, &error)) {
      std::cerr << "bombard: bad --chaos-spec: " << error << "\n";
      return 2;
    }
  }

  // Self-host unless pointed at an external server: spin up the service and
  // a socket in-process so one command drives the full wire path.
  std::optional<svc::QueryService> service;
  std::optional<svc::SocketServer> server;
  std::string socket = args.option_or("--socket", "");
  if (socket.empty()) {
    socket = (std::filesystem::temp_directory_path() /
              ("qdv_bombard_" + std::to_string(::getpid()) + ".sock"))
                 .string();
    service.emplace(open_service_engine(dir, args), service_config_from(args));
    server.emplace(*service, socket);
    server->start();
  }

  const BombardWorkload workload(io::Dataset::open(dir), seed, dup, hot_pool);
  std::mutex merge_mutex;
  std::uint64_t errors = 0;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t local_errors = 0;
      // A dead socket or a dropped connection is a counted failure, not a
      // std::terminate: the run still produces its report and exits 1.
      try {
        svc::SocketClient client{std::filesystem::path(socket)};
        for (std::size_t i = 0; i < requests; ++i) {
          std::string body;
          if (!svc::parse_response_line(
                  client.request(svc::format_request_line(
                      workload.request(seed + c + 1, i))),
                  body))
            ++local_errors;
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(merge_mutex);
        std::cerr << "client " << c << ": " << e.what() << "\n";
        ++local_errors;
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      errors += local_errors;
    });
  }
  for (std::thread& t : threads) t.join();

  std::string server_stats = "unavailable";
  try {
    svc::SocketClient client{std::filesystem::path(socket)};
    std::string body;
    if (svc::parse_response_line(client.request("stats"), body))
      server_stats = body;
  } catch (const std::exception&) {
    // Still report when the server died mid-run.
  }

  // Chaos accounting: what the injector actually fired. Injection stops
  // here — the verify phase below measures what state the chaos left
  // behind, not fresh faults.
  std::ostringstream chaos_json;
  if (chaos) {
    const auto svc_site = [](fault::Kind kind) {
      return fault::injected(fault::Site::kSvc, kind);
    };
    chaos_json << "  \"chaos\": {\"spec\": \"" << chaos_spec
               << "\", \"injected\": {\"svc.eintr\": "
               << svc_site(fault::Kind::kEintr)
               << ", \"svc.delay\": " << svc_site(fault::Kind::kLatency)
               << "}, \"injected_total\": " << fault::injected_total()
               << "},\n";
    std::cout << "chaos: " << fault::injected_total()
              << " faults injected (spec " << chaos_spec << ")\n";
    fault::reset();
  }

  // Served correctness guard: one count per timestep through the socket,
  // each checked against a direct engine on the same dataset.
  std::size_t verify_failures = 0;
  {
    const core::Engine direct = core::Engine::open(dir);
    const io::Dataset& ds = direct.dataset();
    const std::string& var = ds.variables().front();
    const auto domain = ds.global_domain(var);
    const std::string query =
        var + " > " +
        qdv::format_double(domain.first + 0.5 * (domain.second - domain.first));
    try {
      svc::SocketClient client{std::filesystem::path(socket)};
      for (std::size_t t = 0; t < ds.num_timesteps(); ++t) {
        svc::WireRequest wire;
        wire.request.timestep = t;
        wire.request.query = query;
        std::string body;
        const bool ok = svc::parse_response_line(
            client.request(svc::format_request_line(wire)), body);
        const std::uint64_t expect = direct.select(query).count(t);
        if (!ok || body.rfind("count=" + std::to_string(expect) + " ", 0) != 0)
          ++verify_failures;
      }
    } catch (const std::exception& e) {
      std::cerr << "verify: " << e.what() << "\n";
      ++verify_failures;
    }
    std::cout << "verify: " << ds.num_timesteps() << " served counts, "
              << verify_failures << " failures\n";
  }
  if (server) server->stop();

  std::ostringstream json;
  json << "{\n"
       << "  \"workload\": {\"clients\": " << clients
       << ", \"requests_per_client\": " << requests << ", \"seed\": " << seed
       << ", \"dup_fraction\": " << dup << ", \"hot_pool\": " << hot_pool
       << "},\n"
       << "  \"errors\": " << errors << ",\n"
       << "  \"verify_failures\": " << verify_failures << ",\n"
       << chaos_json.str()
       << "  \"server_stats\": \"" << server_stats << "\"\n"
       << "}\n";
  std::cout << "bombard: " << clients << " clients x " << requests
            << " requests, " << errors << " errors\n";
  std::cout << "server: " << server_stats << "\n";
  if (const auto out = args.option("--json")) {
    std::ofstream file(*out);
    file << json.str();
    std::cout << "wrote " << *out << "\n";
  } else {
    std::cout << json.str();
  }
  return errors == 0 && verify_failures == 0 ? 0 : 1;
}

void usage() {
  std::cout <<
      R"(qdv_tool — query-driven exploration of particle datasets

usage: qdv_tool <command> <dataset-dir> [options]

commands:
  generate   create a synthetic wakefield dataset (+ indices)
  info       dataset summary
  query      evaluate a Boolean range / id query at one timestep
  explain    print the canonicalized execution plan of a query
  histogram  conditional 2D histogram (optionally exported as CSV)
  stats      conditional summary statistics of one variable
  track      select particles, trace them across timesteps
  render     histogram-based parallel coordinates to a PPM image
  serve      host the dataset as a concurrent query service (unix socket)
  bombard    drive seeded concurrent load at a service and verify it
  fsck       verify every on-disk artifact against its checksum sidecars
  corrupt    flip one byte of one artifact (integrity drills, CI chaos)

run a command without options to see its required arguments.
full reference: docs/qdv_tool.md
)";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                    std::strcmp(argv[1], "-h") == 0 ||
                    std::strcmp(argv[1], "help") == 0)) {
    usage();
    return 0;
  }
  if (argc < 3) {
    usage();
    return argc < 2 ? 0 : 2;
  }
  const std::string command = argv[1];
  const std::string dir = argv[2];
  const Args args(argc - 2, argv + 2);
  try {
    if (command == "generate") return cmd_generate(dir, args);
    if (command == "info") return cmd_info(dir);
    if (command == "query") return cmd_query(dir, args);
    if (command == "explain") return cmd_explain(dir, args);
    if (command == "histogram") return cmd_histogram(dir, args);
    if (command == "stats") return cmd_stats(dir, args);
    if (command == "track") return cmd_track(dir, args);
    if (command == "render") return cmd_render(dir, args);
    if (command == "serve") return cmd_serve(dir, args);
    if (command == "bombard") return cmd_bombard(dir, args);
    if (command == "fsck") return cmd_fsck(dir, args);
    if (command == "corrupt") return cmd_corrupt(dir, args);
    std::cerr << "unknown command '" << command << "'\n";
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
