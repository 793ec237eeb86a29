#include "io/timestep_table.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "agg/pyramid.hpp"
#include "bitmap/kernels.hpp"

namespace qdv::io {

namespace {

// Verify one recorded section of @p filename against @p bytes (the exact
// range a reader is about to trust). Unrecorded sections count as
// unverified; a mismatch counts a failure and throws IntegrityError — the
// caller decides whether that demotes (index artifacts) or surfaces
// (ground truth).
void verify_section(const ChecksumSet* sums, IntegrityStats& stats,
                    const std::filesystem::path& dir,
                    const std::string& filename, std::uint64_t offset,
                    std::span<const std::byte> bytes) {
  const ChecksumSet::Section* sum =
      sums ? sums->section(filename, offset, bytes.size()) : nullptr;
  if (!sum) {
    stats.unverified.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (crc32c(bytes.data(), bytes.size()) != sum->crc) {
    stats.failures.fetch_add(1, std::memory_order_relaxed);
    throw IntegrityError("checksum mismatch at offset " +
                         std::to_string(offset) + " of " +
                         (dir / filename).string());
  }
  stats.verified.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::vector<MetaLine> read_meta_lines(std::istream& in,
                                      const std::filesystem::path& file) {
  std::vector<MetaLine> lines;
  std::string text;
  for (std::size_t number = 1; std::getline(in, text); ++number) {
    MetaLine line{file.string() + ":" + std::to_string(number), {}};
    std::istringstream words(text);
    for (std::string word; words >> word;) line.words.push_back(std::move(word));
    if (!line.words.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

std::uint64_t MetaLine::count() const {
  std::size_t n = 0;
  if (words.size() != 2 || !parse_size(words[1], n))
    throw std::runtime_error(where + ": bad " + words[0] + " line (want '" +
                             words[0] + " <count>')");
  return n;
}

std::pair<double, double> MetaLine::domain() const {
  double lo = 0.0, hi = 0.0;
  if (words.size() != 4 || !parse_double(words[2], lo) ||
      !parse_double(words[3], hi) || !(lo <= hi))
    throw std::runtime_error(where +
                             ": bad domain line (want 'domain <var> <lo> "
                             "<hi>', finite, lo <= hi)");
  return {lo, hi};
}

TimestepTable::TimestepTable(std::filesystem::path dir,
                             std::shared_ptr<MemoryBudget> budget,
                             std::shared_ptr<IntegrityStats> integrity,
                             std::shared_ptr<RangeStats> ranges)
    : dir_(std::move(dir)), budget_(std::move(budget)),
      integrity_(std::move(integrity)), ranges_(std::move(ranges)) {
  budget_prefix_ = dir_.string();
  try {
    sums_ = ChecksumSet::load_dir(dir_);
  } catch (const std::exception&) {
    // A corrupt sidecar must not take the dataset down: treat the
    // directory as unverified and record the failure.
    integrity_->failures.fetch_add(1, std::memory_order_relaxed);
    sums_ = nullptr;
  }
  // meta.txt is ground truth for row counts and domains — verify it before
  // trusting a parse of it.
  if (sums_) {
    if (const auto* sum = sums_->file("meta.txt")) {
      if (crc32c_file(dir_ / "meta.txt") != sum->crc) {
        integrity_->failures.fetch_add(1, std::memory_order_relaxed);
        throw IntegrityError("checksum mismatch in " +
                             (dir_ / "meta.txt").string());
      }
      integrity_->verified.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::ifstream meta(dir_ / "meta.txt");
  if (!meta)
    throw std::runtime_error("timestep has no meta.txt: " + dir_.string());
  std::size_t rows_lines = 0;
  for (const MetaLine& line : read_meta_lines(meta, dir_ / "meta.txt")) {
    if (line.words[0] == "rows") {
      rows_ = line.count();
      ++rows_lines;
    } else if (line.words[0] == "domain") {
      const std::pair<double, double> bounds = line.domain();  // checks words
      domains_[line.words[1]] = bounds;
      variables_.push_back(line.words[1]);
    }
  }
  // The row count sizes every column and index check below, so a missing
  // or doubled one must not silently become 0 or the last line read.
  if (rows_lines != 1)
    throw std::runtime_error((dir_ / "meta.txt").string() +
                             ": needs exactly one rows line, found " +
                             std::to_string(rows_lines));
}

void TimestepTable::verify_file_locked(const std::string& filename,
                                       const MappedFile& file) const {
  if (verified_files_.count(filename)) return;
  verified_files_.insert(filename);
  const ChecksumSet::FileSum* sum = sums_ ? sums_->file(filename) : nullptr;
  if (!sum) {
    integrity_->unverified.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (sum->size != file.size() ||
      crc32c(file.bytes().data(), file.size()) != sum->crc) {
    integrity_->failures.fetch_add(1, std::memory_order_relaxed);
    verified_files_.erase(filename);  // re-check (and re-throw) on retry
    throw IntegrityError("checksum mismatch in " +
                         (dir_ / filename).string());
  }
  integrity_->verified.fetch_add(1, std::memory_order_relaxed);
}

template <typename T>
std::span<const T> TimestepTable::lazy_column(
    std::unordered_map<std::string, ColumnHandle<T>>& handles,
    const std::string& name, const char* extension) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = handles.find(name);
  if (it == handles.end())
    it = handles.emplace(name, ColumnHandle<T>(dir_ / (name + extension), rows_))
             .first;
  ColumnHandle<T>& handle = it->second;
  const std::string key = budget_prefix_ + "|col|" + name;
  if (budget_->get(key, ResidentClass::kColumn) && handle.loaded())
    return handle.values();
  const std::span<const T> values = handle.load();
  // Whole-file verification on first touch (columns are the scan-path
  // ground truth, so a mismatch is a typed error, not a demotion).
  verify_file_locked(name + extension, *handle.mapping());
  // A column larger than the whole budget streams through the page cache:
  // hint sequential access and let put() evict the charge right back out —
  // the mapping (and every span into it) stays valid regardless.
  if (budget_->budget() != MemoryBudget::kUnlimited &&
      handle.bytes() > budget_->budget())
    handle.mapping()->advise_sequential();
  budget_->put(key, handle.mapping(), handle.bytes(), ResidentClass::kColumn,
               [mapping = handle.mapping()] { mapping->release_pages(); });
  return values;
}

std::span<const double> TimestepTable::column(const std::string& name) const {
  return lazy_column(column_handles_, name, ".f64");
}

std::span<const std::uint64_t> TimestepTable::id_column(const std::string& name) const {
  return lazy_column(id_handles_, name, ".u64");
}

// column() / id_column() leave the handle mapped (or throw), and handles
// are never dropped, so the lookups below always find a live mapping.
void TimestepTable::prefetch_column(const std::string& name) const {
  (void)column(name);  // map + charge the budget
  std::lock_guard<std::mutex> lock(mutex_);
  column_handles_.at(name).mapping()->advise_willneed();
}

void TimestepTable::prefetch_id_column(const std::string& name) const {
  (void)id_column(name);
  std::lock_guard<std::mutex> lock(mutex_);
  id_handles_.at(name).mapping()->advise_willneed();
}

const SegmentedBitmapIndex* TimestepTable::value_index(
    const std::string& name) const {
  const ValueIndex* opened = open_value_index(name);
  return opened ? &opened->index : nullptr;
}

const TimestepTable::ValueIndex* TimestepTable::open_value_index(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string fname = name + ".bmi";
  if (quarantined_.count(fname)) return nullptr;
  auto it = seg_indices_.find(name);
  if (it == seg_indices_.end()) {
    std::optional<ValueIndex> opened;
    const std::filesystem::path file = dir_ / fname;
    if (std::filesystem::exists(file)) {
      try {
        auto mapped = MappedFile::map(file);
        // Each section is verified before it is trusted, once: the header
        // and the outside bitmap now, each bin's segment on its first touch
        // (SegmentedBitmapIndex::pin). The table outlives its indices.
        SegmentedBitmapIndex index = SegmentedBitmapIndex::open(
            mapped->bytes(), mapped,
            [this, fname](std::uint64_t offset, std::span<const std::byte> bytes) {
              verify_section(sums_.get(), *integrity_, dir_, fname, offset, bytes);
            });
        // An index of another row count answers for another table.
        if (index.num_rows() != rows_)
          throw std::runtime_error(fname + " indexes " +
                                   std::to_string(index.num_rows()) +
                                   " rows, meta.txt declares " +
                                   std::to_string(rows_));
        // The directory (edges + offsets) is pinned: raw pointers to the
        // index are handed out, so it must never be evicted.
        budget_->put(budget_prefix_ + "|idxmeta|" + name, mapped,
                     index.metadata_bytes(), ResidentClass::kIndexSegment,
                     {}, /*pinned=*/true);
        opened = ValueIndex{mapped, budget_prefix_ + "|bmi|" + name,
                            std::move(index)};
      } catch (const std::exception&) {
        // Corrupt or truncated index: quarantine it — its predicates
        // demote to the scan path (DESIGN.md §15).
        if (quarantined_.insert(fname).second)
          integrity_->demotions.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
      }
    }
    it = seg_indices_.emplace(name, std::move(opened)).first;
  }
  return it->second ? &*it->second : nullptr;
}

const IdIndex* TimestepTable::id_index(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string fname = name + ".idi";
  if (quarantined_.count(fname)) return nullptr;
  auto it = id_indices_.find(name);
  if (it == id_indices_.end()) {
    std::optional<IdIndex> loaded;
    const std::filesystem::path file = dir_ / fname;
    if (std::filesystem::exists(file)) {
      try {
        // Parsed whole, so verified whole — from the same mapped bytes the
        // parser reads. The mapping is dropped once the arrays are copied.
        const auto mapped = MappedFile::map(file);
        verify_file_locked(fname, *mapped);
        loaded = IdIndex::load(mapped->bytes());
        if (loaded->num_rows() != rows_)
          throw std::runtime_error(fname + " row count differs from meta.txt");
      } catch (const std::exception&) {
        if (quarantined_.insert(fname).second)
          integrity_->demotions.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
      }
      // Pinned accounting-only charge: the id index is handed out as a raw
      // pointer and must stay whole for binary search.
      budget_->put(budget_prefix_ + "|ididx|" + name, nullptr,
                   loaded->memory_bytes(), ResidentClass::kIndexSegment, {},
                   /*pinned=*/true);
    }
    it = id_indices_.emplace(name, std::move(loaded)).first;
  }
  return it->second ? &*it->second : nullptr;
}

bool TimestepTable::has_value_index(const std::string& name) const {
  return std::filesystem::exists(dir_ / (name + ".bmi"));
}

bool TimestepTable::has_id_index(const std::string& name) const {
  return std::filesystem::exists(dir_ / (name + ".idi"));
}

bool TimestepTable::index_quarantined(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return quarantined_.count(name + ".bmi") > 0;
}

void TimestepTable::quarantine_index(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (quarantined_.insert(name + ".bmi").second)
    integrity_->demotions.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const agg::Pyramid> TimestepTable::open_pyramid(
    const std::string& stem) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string fname = stem + ".pyr";
  if (quarantined_.count(fname)) return nullptr;
  auto it = pyramids_.find(stem);
  if (it != pyramids_.end()) return it->second;
  std::shared_ptr<const agg::Pyramid> pyramid;
  const std::filesystem::path file = dir_ / fname;
  if (std::filesystem::exists(file)) {
    try {
      pyramid = agg::Pyramid::open(file, budget_,
                                   budget_prefix_ + "|pyr|" + stem,
                                   agg::PyramidIntegrity{sums_, fname, integrity_});
    } catch (const std::exception&) {
      // Corrupt or truncated header: quarantine the pyramid — zoom queries
      // fall back to the exact kernels (DESIGN.md §15).
      if (quarantined_.insert(fname).second)
        integrity_->demotions.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
  }
  pyramids_.emplace(stem, pyramid);
  return pyramid;
}

std::shared_ptr<const agg::Pyramid> TimestepTable::pyramid1d(
    const std::string& name) const {
  auto p = open_pyramid(name);
  // A quarantined pyramid reports as absent, so kAuto and kExact resolve a
  // zoom the same way after a mid-query demotion.
  return (p && p->quarantined()) ? nullptr : p;
}

std::shared_ptr<const agg::Pyramid> TimestepTable::pyramid2d(
    const std::string& x, const std::string& y) const {
  auto p = open_pyramid(x + "__" + y);
  return (p && p->quarantined()) ? nullptr : p;
}

bool TimestepTable::has_pyramid(const std::string& name) const {
  return std::filesystem::exists(dir_ / (name + ".pyr"));
}

bool TimestepTable::has_pyramid(const std::string& x,
                                const std::string& y) const {
  return std::filesystem::exists(dir_ / (x + "__" + y + ".pyr"));
}

bool TimestepTable::has_indices() const {
  for (const std::string& var : variables_)
    if (std::filesystem::exists(dir_ / (var + ".bmi"))) return true;
  return std::filesystem::exists(dir_ / "id.idi");
}

std::pair<double, double> TimestepTable::domain(const std::string& name) const {
  const auto it = domains_.find(name);
  if (it == domains_.end())
    throw std::out_of_range("unknown variable '" + name + "' in " + dir_.string());
  return it->second;
}

TimestepTable::PricedRange TimestepTable::price_range(
    const std::string& variable, std::span<const Interval> ivs,
    EvalMode mode) const {
  PricedRange out;
  out.step.scan_rows = rows_;
  if (mode == EvalMode::kScan) return out;
  if (index_quarantined(variable)) {
    // Already demoted: go straight to the scan, no re-verification per
    // query. kIndex callers explicitly refused the fallback.
    if (mode == EvalMode::kIndex)
      throw IntegrityError("bitmap index for variable " + variable +
                           " is quarantined");
    return out;
  }
  out.index = open_value_index(variable);
  if (!out.index) {
    if (mode == EvalMode::kIndex)
      throw std::runtime_error("no bitmap index for variable " + variable);
    return out;
  }
  out.plan = out.index->index.plan(ivs);
  out.step.probe_words = out.plan.words;
  if (mode == EvalMode::kIndex || kern::probe_is_cheaper(out.plan.words, rows_))
    out.step.path = RangeStep::Path::kProbe;
  else if (out.plan.may_be_index_only)
    // An index-only probe never reads the column, so it wins whatever it
    // costs: a scan would add column I/O. Only the pin can tell.
    out.step.path = RangeStep::Path::kProbeIfIndexOnly;
  return out;
}

TimestepTable::RangeStep TimestepTable::range_step(
    const std::string& variable, std::span<const Interval> ivs,
    EvalMode mode) const {
  return price_range(variable, ivs, mode).step;
}

BitVector TimestepTable::range(const std::string& variable,
                               std::span<const Interval> ivs,
                               EvalMode mode) const {
  std::vector<Interval> live(ivs.begin(), ivs.end());
  std::erase_if(live, [](const Interval& iv) { return iv.empty(); });
  if (live.empty()) return BitVector::zeros(rows_);
  const PricedRange priced = price_range(variable, live, mode);
  std::optional<SegmentedBitmapIndex::Probe> pinned;
  if (priced.step.path != RangeStep::Path::kScan) try {
    // The pin reads the image in place: one budget lookup refreshes it, or
    // charges it again after an eviction dropped its pages (the mapping,
    // and every view into it, stays valid).
    const ValueIndex& opened = *priced.index;
    if (!budget_->get(opened.budget_key, ResidentClass::kIndexSegment))
      budget_->put(opened.budget_key, opened.file, opened.file->size(),
                   ResidentClass::kIndexSegment,
                   [file = opened.file] { file->release_pages(); });
    SegmentedBitmapIndex::Probe probe = opened.index.pin(priced.plan);
    ranges_->probe_segments.fetch_add(probe.segments, std::memory_order_relaxed);
    if (priced.step.path == RangeStep::Path::kProbe || !probe.needs_column())
      pinned = std::move(probe);
  } catch (const IntegrityError&) {
    // A segment failed its checksum or its structural checks while being
    // pinned: quarantine the index and demote this step to the scan —
    // same bits, no index (DESIGN.md §15).
    if (mode == EvalMode::kIndex) throw;
    quarantine_index(variable);
  }
  if (pinned) {
    ranges_->probes.fetch_add(1, std::memory_order_relaxed);
    ranges_->probe_words.fetch_add(priced.step.probe_words,
                                   std::memory_order_relaxed);
    // Index-only answers (precision binning) never touch the data.
    return pinned->run(live, pinned->needs_column() ? column(variable)
                                                    : std::span<const double>{});
  }
  ranges_->scans.fetch_add(1, std::memory_order_relaxed);
  ranges_->scan_rows.fetch_add(rows_, std::memory_order_relaxed);
  return kern::scan_intervals(column(variable), live);
}

BitVector TimestepTable::id_in(const std::string& variable,
                               std::span<const std::uint64_t> ids,
                               EvalMode mode) const {
  if (mode != EvalMode::kScan) {
    if (const IdIndex* idx = id_index(variable))
      return BitVector::from_positions(idx->lookup_rows(ids), rows_);
    if (mode == EvalMode::kIndex)
      throw std::runtime_error("no id index for variable " + variable);
  }
  const std::span<const std::uint64_t> column = id_column(variable);
  std::vector<std::uint32_t> rows;
  for (std::uint32_t row = 0; row < column.size(); ++row)
    if (std::binary_search(ids.begin(), ids.end(), column[row]))
      rows.push_back(row);
  return BitVector::from_positions(rows, rows_);
}

}  // namespace qdv::io
