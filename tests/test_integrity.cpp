// Integrity layer suite (DESIGN.md §15): CRC32C vectors and chaining, the
// checksum sidecar round-trip, fsck over pristine / damaged / sidecar-less
// datasets, deterministic fault-injector behavior, quarantine-and-demote
// degradation against a pristine reference (a checksum mismatch, and a
// malformed segment no checksum covers), and the hardened service edges
// (deadline expiry, load shedding, and their wire statuses).
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bitmap/index_segments.hpp"
#include "core/selection.hpp"
#include "fault/fault.hpp"
#include "fuzz_common.hpp"
#include "io/checksum.hpp"
#include "io/mapped_file.hpp"
#include "sim/wakefield.hpp"
#include "svc/protocol.hpp"
#include "svc/query_service.hpp"
#include "test_common.hpp"

namespace {

using namespace qdv;
namespace fuzz = qdv::test::fuzz;

// ----------------------------------------------------------------- crc32c ---

void test_crc32c_vectors() {
  // The CRC-32C check value: crc of the ASCII digits "123456789".
  const char digits[] = "123456789";
  CHECK_EQ(io::crc32c(digits, 9), 0xE3069283u);
  CHECK_EQ(io::crc32c(nullptr, 0), 0u);
  // Chaining: the crc of a split buffer equals the one-shot crc.
  const std::uint32_t head = io::crc32c(digits, 4);
  CHECK_EQ(io::crc32c(digits + 4, 5, head), 0xE3069283u);
  // Any flipped bit changes the sum.
  char copy[9];
  std::copy(digits, digits + 9, copy);
  copy[5] ^= 0x10;
  CHECK(io::crc32c(copy, 9) != 0xE3069283u);
}

void test_crc32c_file() {
  const std::filesystem::path dir = qdv::test::scratch_dir("integrity_crcfile");
  const std::filesystem::path file = dir / "blob.bin";
  std::string data(70000, '\0');  // bigger than one streaming chunk
  std::uint64_t state = 0xc4c32c;
  for (char& c : data) c = static_cast<char>(fuzz::next(state));
  {
    std::ofstream out(file, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  CHECK_EQ(io::crc32c_file(file), io::crc32c(data.data(), data.size()));
  CHECK_THROWS(io::crc32c_file(dir / "no_such_file"));
}

// ---------------------------------------------------------------- sidecar ---

void test_sidecar_round_trip() {
  const std::filesystem::path dir = qdv::test::scratch_dir("integrity_sidecar");
  CHECK(io::ChecksumSet::load_dir(dir) == nullptr);  // no sidecar yet

  io::ChecksumSet set;
  set.set_file("x.f64", 800, 0xdeadbeefu);
  set.set_file("x.bmi", 96, 0x77u);
  set.add_section("x.bmi", 0, 64, 0x1234u);
  set.add_section("x.bmi", 64, 32, 0x5678u);
  set.save_dir(dir);

  const auto back = io::ChecksumSet::load_dir(dir);
  CHECK(back != nullptr);
  const io::ChecksumSet::FileSum* f = back->file("x.f64");
  CHECK(f != nullptr && f->size == 800 && f->crc == 0xdeadbeefu);
  CHECK(back->file("missing") == nullptr);
  const io::ChecksumSet::Section* s = back->section("x.bmi", 64, 32);
  CHECK(s != nullptr && s->crc == 0x5678u);
  CHECK(back->section("x.bmi", 64, 33) == nullptr);  // exact match only
  CHECK(back->sections("x.bmi") != nullptr &&
        back->sections("x.bmi")->size() == 2);
  const std::vector<std::string> names = back->file_names();
  CHECK_EQ(names.size(), 2u);
  CHECK(std::find(names.begin(), names.end(), "x.f64") != names.end());

  // A malformed sidecar is a loud error, not a silent "unverified".
  {
    std::ofstream out(dir / io::kChecksumSidecarName);
    out << "qdv_checksums 1\nfile broken\n";
  }
  CHECK_THROWS(io::ChecksumSet::load_dir(dir));
}

// ------------------------------------------------------------------- fsck ---

void flip_byte_at(const std::filesystem::path& file, std::uint64_t offset) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
  CHECK(f.good());
}

void test_fsck() {
  const std::filesystem::path dir = fuzz::write_random_dataset(
      "integrity_fsck", /*timesteps=*/1, /*rows=*/300, /*seed=*/0xf5c4,
      /*index_bins=*/16);

  // Pristine: everything checks out, nothing is damaged.
  io::FsckReport clean = io::fsck_dataset(dir);
  CHECK(!clean.damaged());
  CHECK(clean.ok > 0);
  CHECK_EQ(clean.failed, 0u);

  // One flipped byte deep inside a .bmi: fsck names the file as failed and
  // drills into its sections to localize the damage.
  const std::filesystem::path bmi = dir / io::step_dir_name(0) / "a.bmi";
  flip_byte_at(bmi, std::filesystem::file_size(bmi) - 9);
  io::FsckReport damaged = io::fsck_dataset(dir);
  CHECK(damaged.damaged());
  CHECK(damaged.failed > 0);
  CHECK(damaged.sections_checked > 0);
  bool named = false;
  for (const io::FsckEntry& e : damaged.entries)
    if (e.status == io::FsckEntry::Status::kFailed &&
        e.rel.find("a.bmi") != std::string::npos)
      named = true;
  CHECK(named);

  // Dropping a sidecar turns that directory's artifacts into "unverified",
  // never into failures — pre-checksum datasets keep working.
  std::filesystem::remove(dir / io::step_dir_name(0) /
                          io::kChecksumSidecarName);
  io::FsckReport legacy = io::fsck_dataset(dir);
  CHECK(!legacy.damaged());
  CHECK(legacy.unverified > 0);

  CHECK_THROWS(io::fsck_dataset(dir / "not_a_dataset"));
}

// --------------------------------------------------------- fault injector ---

void test_fault_injector() {
  std::string error;
  CHECK(fault::configure("seed:7,spec:file.flip@1.0", &error));
  CHECK(fault::enabled());
  CHECK(fault::roll(fault::Site::kFile, fault::Kind::kBitFlip));
  CHECK(!fault::roll(fault::Site::kSvc, fault::Kind::kBitFlip));   // other site
  CHECK(!fault::roll(fault::Site::kFile, fault::Kind::kEintr));    // other kind
  const std::uint64_t d1 = fault::draw();
  const std::uint64_t d2 = fault::draw();
  CHECK(fault::injected(fault::Site::kFile, fault::Kind::kBitFlip) >= 1);
  CHECK(fault::injected_total() >= 1);

  // Same seed, same stream: a failing chaos run replays exactly.
  CHECK(fault::configure("seed:7,spec:file.flip@1.0", &error));
  CHECK(fault::roll(fault::Site::kFile, fault::Kind::kBitFlip));
  CHECK_EQ(fault::draw(), d1);
  CHECK_EQ(fault::draw(), d2);

  // Malformed specs are rejected and leave the previous schedule running.
  CHECK(!fault::configure("spec:bogus", &error));
  CHECK(!error.empty());
  CHECK(fault::enabled());
  // `wire` names no site, so a spec for it is malformed.
  error.clear();
  CHECK(!fault::configure("spec:wire.reset@0.1", &error));
  CHECK(!error.empty());

  fault::reset();
  CHECK(!fault::enabled());
  CHECK(!fault::roll(fault::Site::kFile, fault::Kind::kBitFlip));
  CHECK_EQ(fault::injected_total(), 0u);
}

// ------------------------------------------------------------ degradation ---

void test_bitmap_demotion_matches_scan() {
  const std::filesystem::path pristine = fuzz::write_random_dataset(
      "integrity_demote_src", /*timesteps=*/1, /*rows=*/500, /*seed=*/0xdead,
      /*index_bins=*/24);
  const core::Engine reference = core::Engine::open(pristine);

  const std::filesystem::path dir =
      qdv::test::scratch_dir("integrity_demote") / "ds";
  std::filesystem::copy(pristine, dir,
                        std::filesystem::copy_options::recursive);
  const std::filesystem::path bmi = dir / io::step_dir_name(0) / "a.bmi";
  flip_byte_at(bmi, std::filesystem::file_size(bmi) - 9);

  const core::Engine engine = core::Engine::open(dir);
  const QueryPtr q = parse_query("a > 0");
  const auto want =
      test::scan_oracle(reference.dataset().table(0), *q).to_positions();
  // First query demotes the damaged index to a column scan — same bits.
  CHECK(engine.select(q).bits(0)->to_positions() == want);
  const core::EngineStats after = engine.stats();
  CHECK(after.integrity_demotions >= 1);
  // Quarantine is sticky and counted once: a second query neither
  // re-verifies nor re-demotes.
  CHECK(engine.select("a > 0.5").bits(0)->to_positions() ==
        reference.select("a > 0.5").bits(0)->to_positions());
  CHECK_EQ(engine.stats().integrity_demotions, after.integrity_demotions);
  // Forcing the index path on a quarantined index is a typed error.
  CHECK_THROWS(test::run_plan(engine.dataset().table(0), q, EvalMode::kIndex));
}

// The id index is verified whole from the mapped bytes it is parsed from:
// a damaged .idi demotes id lookups to the id-column scan, same rows.
void test_id_index_demotion_matches_scan() {
  const std::filesystem::path pristine = fuzz::write_random_dataset(
      "integrity_idi_src", /*timesteps=*/1, /*rows=*/300, /*seed=*/0x1d1,
      /*index_bins=*/16);
  const std::filesystem::path dir =
      qdv::test::scratch_dir("integrity_idi") / "ds";
  std::filesystem::copy(pristine, dir,
                        std::filesystem::copy_options::recursive);
  flip_byte_at(dir / io::step_dir_name(0) / "id.idi", 20);

  const core::Engine engine = core::Engine::open(dir);
  const io::TimestepTable& table = engine.dataset().table(0);
  const QueryPtr q = Query::id_in("id", {1003, 1100, 1299, 5});
  const auto got = test::run_plan(table, q).to_positions();
  CHECK(table.id_index("id") == nullptr);
  CHECK(got == test::scan_oracle(table, *q).to_positions());
  CHECK_EQ(got.size(), 3u);
  CHECK(engine.stats().integrity_demotions >= 1);
}

void test_pyramid_demotion_matches_exact() {
  const std::filesystem::path pristine = fuzz::write_random_dataset(
      "integrity_pyr_src", /*timesteps=*/1, /*rows=*/500, /*seed=*/0xace,
      /*index_bins=*/24);
  const core::Engine reference = core::Engine::open(pristine);

  const std::filesystem::path dir =
      qdv::test::scratch_dir("integrity_pyr") / "ds";
  std::filesystem::copy(pristine, dir,
                        std::filesystem::copy_options::recursive);
  // Damage a level count array (levels live after the eager header+edges
  // block, so the tail of the file is always level payload). The level's
  // section checksum fails on first touch, counts a failure, and the whole
  // pyramid quarantines.
  const std::filesystem::path pyr =
      dir / io::step_dir_name(0) / agg::pyramid_filename("a");
  flip_byte_at(pyr, std::filesystem::file_size(pyr) - 5);

  const core::Engine engine = core::Engine::open(dir);
  const auto [lo, hi] = reference.dataset().global_domain("a");
  // Full-domain zooms at every level width (leaf is 32 bins): one of them
  // touches the damaged array. Mode-independence must hold on the damaged
  // store itself — after quarantine the pyramid reports as absent, so
  // kAuto and kExact re-resolve to the identical exact-kernel answer.
  bool served_exact = false;
  for (std::size_t nbins : {1, 2, 4, 8, 16, 32}) {
    const core::Zoom1DResult got = engine.all().zoom_histogram1d(
        0, "a", lo, hi, nbins, core::ZoomMode::kAuto);
    const core::Zoom1DResult want = engine.all().zoom_histogram1d(
        0, "a", lo, hi, nbins, core::ZoomMode::kExact);
    CHECK(got.hist.counts == want.hist.counts);
    CHECK(got.hist.bins.edges() == want.hist.bins.edges());
    if (!got.pyramid) served_exact = true;
  }
  CHECK(served_exact);  // the quarantined pyramid stopped serving
  const core::EngineStats stats = engine.stats();
  CHECK(stats.integrity_demotions >= 1);
  CHECK(stats.integrity_failures >= 1);
}

void test_corrupt_column_is_typed_error() {
  const std::filesystem::path pristine = fuzz::write_random_dataset(
      "integrity_col_src", /*timesteps=*/1, /*rows=*/300, /*seed=*/0xc01,
      /*index_bins=*/16);
  const std::filesystem::path dir =
      qdv::test::scratch_dir("integrity_col") / "ds";
  std::filesystem::copy(pristine, dir,
                        std::filesystem::copy_options::recursive);
  flip_byte_at(dir / io::step_dir_name(0) / "a.f64", 40);

  // Open succeeds; the scan of the damaged column — ground truth, no
  // fallback — fails typed on first touch.
  const core::Engine engine = core::Engine::open(dir);
  bool typed = false;
  try {
    (void)test::run_plan(engine.dataset().table(0), parse_query("a > 0"),
                         EvalMode::kScan);
  } catch (const io::IntegrityError&) {
    typed = true;
  }
  CHECK(typed);
}

// A copy of @p pristine under @p name, with the bin segments of a.bmi and
// the interval-union gesture over them: `a` at the middle of bin 8 and of
// bin 12 of its 24 bins, so bins 8-12 are the complement side the probe
// reads and bins 0-7 and 13-23 the inside side it skips.
struct UnionCase {
  std::filesystem::path dir;
  const SegmentedBitmapIndex* pristine_index = nullptr;
  std::vector<Interval> ivs;
  std::string gesture;
};

UnionCase union_case(const std::filesystem::path& pristine,
                     const core::Engine& reference, const std::string& name) {
  UnionCase c;
  c.dir = qdv::test::scratch_dir(name) / "ds";
  std::filesystem::copy(pristine, c.dir,
                        std::filesystem::copy_options::recursive);
  c.pristine_index = reference.dataset().table(0).value_index("a");
  const std::vector<double>& e = c.pristine_index->bins().edges();
  const double a = 0.5 * (e[8] + e[9]);
  const double b = 0.5 * (e[12] + e[13]);
  c.ivs = {Interval::at_most(a), Interval::greater_than(b)};
  c.gesture = "(a <= " + format_double(a) + " || a > " + format_double(b) + ")";
  return c;
}

void test_union_probe_demotes_on_complement_segment() {
  const std::filesystem::path pristine = fuzz::write_random_dataset(
      "integrity_union_src", /*timesteps=*/1, /*rows=*/500, /*seed=*/0x0417,
      /*index_bins=*/24);
  const core::Engine reference = core::Engine::open(pristine);
  const io::TimestepTable& ref_table = reference.dataset().table(0);
  const UnionCase c = union_case(pristine, reference, "integrity_union");
  // The gesture with edge-aligned ends: index-only, so the range-step rule
  // probes it at every ISA level, reading bins 9-12 as the complement side.
  const std::vector<double>& e = c.pristine_index->bins().edges();
  const std::vector<Interval> ivs = {Interval::less_than(e[9]),
                                     Interval::at_least(e[13])};
  const std::string gesture = "(a < " + format_double(e[9]) +
                              " || a >= " + format_double(e[13]) + ")";
  CHECK(c.pristine_index->pin(ivs).complement);
  // Damage bin 10: a gap bin only the complement side reads.
  const std::size_t victim = 10;
  CHECK(c.pristine_index->segment_words(victim) > 0);
  flip_byte_at(c.dir / io::step_dir_name(0) / "a.bmi",
               c.pristine_index->segment_offset(victim) +
                   BitVector::kRecordHeaderBytes);

  const core::Engine engine = core::Engine::open(c.dir);
  // A probe whose plan skips bin 10 answers from the index, undisturbed.
  const std::string inside = "a >= " + format_double(e[14]);
  CHECK(engine.select(inside).bits(0)->to_positions() ==
        test::scan_oracle(ref_table, *parse_query(inside)).to_positions());
  CHECK_EQ(engine.stats().integrity_demotions, 0u);
  // The gesture reads bin 10, fails its checksum, quarantines the index
  // once, and demotes to the scan: the same bits.
  CHECK(engine.select(gesture).bits(0)->to_positions() ==
        test::scan_oracle(ref_table, *parse_query(gesture)).to_positions());
  CHECK_EQ(engine.stats().integrity_demotions, 1u);
  CHECK(engine.dataset().table(0).index_quarantined("a"));
  CHECK(engine.select("(a <= 1 || a > 7)").bits(0)->to_positions() ==
        test::scan_oracle(ref_table, *parse_query("(a <= 1 || a > 7)"))
            .to_positions());
  CHECK_EQ(engine.stats().integrity_demotions, 1u);
}

void test_union_probe_column_damage_is_typed() {
  const std::filesystem::path pristine = fuzz::write_random_dataset(
      "integrity_union_col_src", /*timesteps=*/1, /*rows=*/500,
      /*seed=*/0x0418, /*index_bins=*/24);
  const core::Engine reference = core::Engine::open(pristine);
  const UnionCase c = union_case(pristine, reference, "integrity_union_col");
  flip_byte_at(c.dir / io::step_dir_name(0) / "a.f64", 64);

  const core::Engine engine = core::Engine::open(c.dir);
  // An index-only answer (edges aligned, no candidate rows) never reads
  // the column, so the damage stays unseen.
  const std::string aligned =
      "a >= " + format_double(c.pristine_index->bins().edges()[14]);
  CHECK_EQ(engine.select(aligned).count(0),
           reference.select(aligned).count(0));
  // The gesture's boundary bins need the column: the candidate check meets
  // the damage and fails typed — ground truth, not an index demotion.
  bool typed = false;
  try {
    (void)engine.select(c.gesture).count(0);
  } catch (const io::IntegrityError&) {
    typed = true;
  }
  CHECK(typed);
  CHECK_EQ(engine.stats().integrity_demotions, 0u);
  CHECK(!engine.dataset().table(0).index_quarantined("a"));
}

// A segment whose fill counts disagree with its bit count, on a dataset
// without checksum sidecars, so no CRC can catch it: the first touch's
// structural checks quarantine the index once and the step scans, as a
// checksum mismatch does. kIndex, which refuses the fallback, still throws.
void test_malformed_segment_demotes() {
  const std::filesystem::path dir =
      qdv::test::scratch_dir("integrity_malformed") / "ds";
  io::IndexConfig index_config;
  index_config.nbins = 64;
  index_config.build_pyramids = false;
  CHECK(sim::generate_dataset(sim::WakefieldConfig::preset_bench(20000, 1),
                              dir, index_config) > 0);
  std::vector<std::filesystem::path> sidecars;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir))
    if (entry.path().filename() == "checksums.qdv") sidecars.push_back(entry.path());
  CHECK(!sidecars.empty());
  for (const std::filesystem::path& file : sidecars) std::filesystem::remove(file);

  // Rewrite the first literal word of bin 0 as a 1,000-group zero fill.
  const std::filesystem::path bmi = dir / io::step_dir_name(0) / "y.bmi";
  double edge = 0.0;  // bin 0's upper edge
  {
    const auto mapped = io::MappedFile::map(bmi);
    const SegmentedBitmapIndex y = SegmentedBitmapIndex::open(mapped->bytes(), mapped);
    edge = y.bins().edges()[1];
    const std::uint64_t words = y.segment_offset(0) + BitVector::kRecordHeaderBytes;
    std::uint64_t literal = 0;
    for (std::uint64_t w = 0; w < y.segment_words(0) && literal == 0; ++w) {
      std::uint32_t word = 0;
      std::memcpy(&word, mapped->bytes().data() + words + 4 * w, 4);
      if (!(word & 0x80000000u)) literal = words + 4 * w;
    }
    CHECK(literal > 0);
    std::fstream f(bmi, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint32_t fill = 0x80000000u | 1000u;
    f.seekp(static_cast<std::streamoff>(literal));
    f.write(reinterpret_cast<const char*>(&fill), 4);
    CHECK(f.good());
  }

  const QueryPtr q = parse_query("y < " + format_double(edge));
  const auto count = [&](const core::Engine& engine, EvalMode mode) {
    try {
      return static_cast<std::int64_t>(
          test::run_plan(engine.dataset().table(0), q, mode).count());
    } catch (const std::exception&) {
      return std::int64_t{-1};
    }
  };
  const core::Engine engine = core::Engine::open(dir);
  const auto scanned = static_cast<std::int64_t>(
      test::scan_oracle(engine.dataset().table(0), *q).count());
  CHECK(scanned > 0);
  CHECK_EQ(count(engine, EvalMode::kScan), scanned);
  CHECK_EQ(count(engine, EvalMode::kAuto), scanned);
  CHECK_EQ(engine.stats().integrity_demotions, 1u);
  CHECK(engine.dataset().table(0).index_quarantined("y"));
  CHECK_EQ(count(engine, EvalMode::kAuto), scanned);
  CHECK_EQ(engine.stats().integrity_demotions, 1u);
  CHECK_EQ(count(engine, EvalMode::kIndex), -1);
  // On a fresh open, kIndex meets the damage itself: a typed error, and
  // no quarantine.
  const core::Engine fresh = core::Engine::open(dir);
  bool typed = false;
  try {
    (void)test::run_plan(fresh.dataset().table(0), q, EvalMode::kIndex);
  } catch (const io::IntegrityError&) {
    typed = true;
  }
  CHECK(typed);
  CHECK_EQ(fresh.stats().integrity_demotions, 0u);
}

// ---------------------------------------------------------- service edges ---

void test_service_deadline_and_shedding() {
  const std::filesystem::path dir = fuzz::write_random_dataset(
      "integrity_svc", /*timesteps=*/1, /*rows=*/4000, /*seed=*/0x5e1f,
      /*index_bins=*/24);

  // Leg 1 — load shedding: one dispatch slot, a shed threshold far below
  // the flood size. The flood is submitted while the pool is gated, so the
  // dispatch slot cannot drain the queue under it: the first 8 requests
  // queue and execute once the gate opens, the other 56 bounce with
  // kRetryLater.
  {
    svc::ServiceConfig config;
    config.max_concurrency = 1;
    config.cache_results = false;
    config.shed_queue_depth = 8;
    svc::QueryService service{core::Engine::open(dir), config};
    const auto session = service.open_session("shed");
    std::vector<svc::ResultFuture> futures;
    test::PoolGate gate;
    for (int i = 0; i < 64; ++i) {
      svc::Request r;
      r.kind = svc::RequestKind::kHistogram1D;
      r.var_x = "a";
      r.nxbins = 16 + i;  // distinct keys: no coalescing
      r.query = "a > " + std::to_string(i);
      futures.push_back(service.submit(session, std::move(r)));
    }
    gate.release();
    std::size_t ok = 0, shed = 0;
    for (auto& f : futures) {
      const svc::ResultPtr r = f.get();
      if (r->status == svc::Status::kOk) ++ok;
      if (r->status == svc::Status::kRetryLater) ++shed;
    }
    service.drain();
    CHECK_EQ(ok, 8u);
    CHECK_EQ(shed, 56u);
    const svc::ServiceStats stats = service.stats();
    CHECK_EQ(stats.rejected_shed, shed);
    CHECK_EQ(ok + shed, futures.size());
    // The engine's integrity counters surface through the service stats
    // (pristine dataset: verifications happened, no failures).
    CHECK(stats.integrity_verified > 0);
    CHECK_EQ(stats.integrity_failures, 0u);
    CHECK_EQ(stats.integrity_demotions, 0u);
    service.close_session(session);
  }

  // Leg 2 — deadlines: no shedding, a few deliberately slow requests
  // (multi-million-bin histograms: allocation + zeroing alone dwarfs 1 ms)
  // hog the single worker, then a batch with a 1 ms budget queues behind
  // them. FIFO dispatch guarantees the batch waits out its budget.
  {
    svc::ServiceConfig config;
    config.max_concurrency = 1;
    config.cache_results = false;
    svc::QueryService service{core::Engine::open(dir), config};
    const auto session = service.open_session("deadline");
    std::vector<svc::ResultFuture> futures;
    for (int i = 0; i < 20; ++i) {
      svc::Request r;
      r.kind = svc::RequestKind::kHistogram1D;
      r.var_x = "a";
      if (i < 4) {
        r.nxbins = 4'000'000 + static_cast<std::size_t>(i);  // slow blocker
        r.query = "a > " + std::to_string(i);
      } else {
        r.nxbins = 16 + static_cast<std::size_t>(i);
        r.query = "a > " + std::to_string(i);
        r.deadline_ms = 1;
      }
      futures.push_back(service.submit(session, std::move(r)));
    }
    std::size_t ok = 0, expired = 0;
    for (auto& f : futures) {
      const svc::ResultPtr r = f.get();
      if (r->status == svc::Status::kOk) ++ok;
      if (r->status == svc::Status::kDeadlineExpired) ++expired;
    }
    service.drain();
    CHECK(ok > 0);
    CHECK(expired > 0);
    const svc::ServiceStats stats = service.stats();
    CHECK_EQ(stats.deadline_expired, expired);
    CHECK_EQ(ok + expired, futures.size());
    service.close_session(session);
  }
}

// --------------------------------------------------------------- protocol ---

void test_protocol_deadline_and_statuses() {
  svc::WireRequest wire;
  std::string error;
  CHECK(svc::parse_request_line("count t=0 deadline=250 q=a > 0", wire, error));
  CHECK_EQ(wire.request.deadline_ms, 250u);
  const std::string line = svc::format_request_line(wire);
  CHECK(line.find("deadline=250") != std::string::npos);
  svc::WireRequest back;
  CHECK(svc::parse_request_line(line, back, error));
  CHECK_EQ(back.request.deadline_ms, 250u);

  svc::Result r;
  r.status = svc::Status::kRetryLater;
  r.error = "shedding load; retry after 50 ms";
  CHECK(svc::format_response_line(r, 4).rfind("err retry-after", 0) == 0);
  r.status = svc::Status::kDeadlineExpired;
  CHECK(svc::format_response_line(r, 4).rfind("err deadline-expired", 0) == 0);

  svc::ServiceStats stats;
  stats.rejected_shed = 2;
  stats.deadline_expired = 1;
  stats.integrity_demotions = 3;
  const std::string sline = svc::format_stats_line(stats);
  CHECK(sline.find("shed=2") != std::string::npos);
  CHECK(sline.find("deadline_expired=1") != std::string::npos);
  CHECK(sline.find("integrity_demotions=3") != std::string::npos);
}

}  // namespace

int main() {
  test_crc32c_vectors();
  test_crc32c_file();
  test_sidecar_round_trip();
  test_fsck();
  test_fault_injector();
  test_bitmap_demotion_matches_scan();
  test_id_index_demotion_matches_scan();
  test_pyramid_demotion_matches_exact();
  test_corrupt_column_is_typed_error();
  test_union_probe_demotes_on_complement_segment();
  test_union_probe_column_damage_is_typed();
  test_malformed_segment_demotes();
  test_service_deadline_and_shedding();
  test_protocol_deadline_and_statuses();
  return qdv::test::finish("test_integrity");
}
