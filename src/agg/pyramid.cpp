#include "agg/pyramid.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "bitmap/histogram.hpp"
#include "io/io_util.hpp"

namespace qdv::agg {
namespace {

constexpr char kMagic[8] = {'q', 'd', 'v', 'p', 'y', 'r', '1', '\0'};

void read_exact(int fd, void* dst, std::size_t n, std::uint64_t offset) {
  if (io::pread_full(fd, dst, n, offset) != n)
    throw std::runtime_error("qdv::agg: truncated .pyr read");
}

void bump(const std::shared_ptr<io::IntegrityStats>& stats,
          std::atomic<std::uint64_t> io::IntegrityStats::* counter) {
  if (stats) ((*stats).*counter).fetch_add(1, std::memory_order_relaxed);
}

template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

std::size_t checked_leaf_log2(const Bins& leaf) {
  const std::size_t nbins = leaf.num_bins();
  if (nbins == 0 || (nbins & (nbins - 1)) != 0)
    throw std::invalid_argument(
        "qdv::agg: pyramid leaf bin count must be a power of two");
  return static_cast<std::size_t>(std::countr_zero(nbins));
}

void check_edges(const std::vector<double>& edges, std::size_t leaf_log2) {
  if (edges.size() != (std::size_t{1} << leaf_log2) + 1)
    throw std::runtime_error("qdv::agg: .pyr edge count mismatch");
  for (std::size_t i = 1; i < edges.size(); ++i)
    if (!(edges[i - 1] < edges[i]))
      throw std::runtime_error("qdv::agg: .pyr edges not strictly ascending");
}

}  // namespace

struct Pyramid::LevelIo {
  ~LevelIo() {
    if (fd >= 0) ::close(fd);
  }
  int fd = -1;
  std::uint64_t data_offset = 0;
  std::shared_ptr<io::MemoryBudget> budget;  // never null
  std::string prefix;
  PyramidIntegrity integrity;
  std::atomic<bool> quarantined{false};
};

Pyramid Pyramid::build1d(std::span<const double> values, Bins leaf) {
  Pyramid p;
  p.leaf_log2_ = checked_leaf_log2(leaf);
  p.rows_ = values.size();
  p.edges_.push_back(leaf.edges());

  p.built_.resize(p.num_levels());
  p.built_[p.leaf_log2_] = std::make_shared<std::vector<std::uint64_t>>(
      tally1d(values, std::move(leaf)).counts);
  for (std::size_t l = p.leaf_log2_; l-- > 0;) {
    const auto& child = *p.built_[l + 1];
    std::vector<std::uint64_t> parent(std::size_t{1} << l, 0);
    for (std::size_t j = 0; j < parent.size(); ++j)
      parent[j] = child[2 * j] + child[2 * j + 1];
    p.built_[l] =
        std::make_shared<std::vector<std::uint64_t>>(std::move(parent));
  }
  return p;
}

Pyramid Pyramid::build2d(std::span<const double> v0,
                         std::span<const double> v1, Bins leaf0, Bins leaf1) {
  if (v0.size() != v1.size())
    throw std::invalid_argument("qdv::agg: pair columns differ in length");
  Pyramid p;
  p.leaf_log2_ = checked_leaf_log2(leaf0);
  if (checked_leaf_log2(leaf1) != p.leaf_log2_)
    throw std::invalid_argument(
        "qdv::agg: pair pyramid axes must share one leaf bin count");
  p.rows_ = v0.size();
  p.edges_.push_back(leaf0.edges());
  p.edges_.push_back(leaf1.edges());

  // tally2d's row-major [i0 * n + i1] layout is the leaf level's.
  p.built_.resize(p.num_levels());
  p.built_[p.leaf_log2_] = std::make_shared<std::vector<std::uint64_t>>(
      tally2d(v0, v1, std::move(leaf0), std::move(leaf1)).counts);
  for (std::size_t l = p.leaf_log2_; l-- > 0;) {
    const auto& child = *p.built_[l + 1];
    const std::size_t np = std::size_t{1} << l;
    const std::size_t nc = np * 2;
    std::vector<std::uint64_t> parent(np * np, 0);
    for (std::size_t j0 = 0; j0 < np; ++j0)
      for (std::size_t j1 = 0; j1 < np; ++j1)
        parent[j0 * np + j1] = child[(2 * j0) * nc + 2 * j1] +
                               child[(2 * j0) * nc + 2 * j1 + 1] +
                               child[(2 * j0 + 1) * nc + 2 * j1] +
                               child[(2 * j0 + 1) * nc + 2 * j1 + 1];
    p.built_[l] =
        std::make_shared<std::vector<std::uint64_t>>(std::move(parent));
  }
  return p;
}

void Pyramid::save(const std::filesystem::path& file) const {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("qdv::agg: cannot write " + file.string());
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, static_cast<std::uint32_t>(ndims()));
  write_pod(out, static_cast<std::uint32_t>(leaf_log2_));
  write_pod(out, rows_);
  for (const auto& axis : edges_) {
    write_pod(out, static_cast<std::uint64_t>(axis.size()));
    out.write(reinterpret_cast<const char*>(axis.data()),
              static_cast<std::streamsize>(axis.size() * sizeof(double)));
  }
  for (std::size_t l = 0; l < num_levels(); ++l) {
    const auto counts = level(l);
    out.write(reinterpret_cast<const char*>(counts->data()),
              static_cast<std::streamsize>(counts->size() * sizeof(std::uint64_t)));
  }
  if (!out) throw std::runtime_error("qdv::agg: short write to " + file.string());
}

std::shared_ptr<Pyramid> Pyramid::open(const std::filesystem::path& file,
                                       std::shared_ptr<io::MemoryBudget> budget,
                                       std::string budget_prefix,
                                       PyramidIntegrity integrity) {
  const int fd = ::open(file.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    throw std::runtime_error("qdv::agg: cannot open " + file.string());
  auto io = std::make_shared<LevelIo>();
  io->fd = fd;
  // No caller budget (fsck, tools, tests): levels cache in a private one.
  io->budget =
      budget ? std::move(budget) : std::make_shared<io::MemoryBudget>();
  io->prefix = std::move(budget_prefix);
  io->integrity = std::move(integrity);

  std::shared_ptr<Pyramid> p{new Pyramid()};
  {
    std::uint64_t offset = 0;
    char magic[sizeof(kMagic)];
    read_exact(fd, magic, sizeof(magic), offset);
    offset += sizeof(magic);
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
      throw std::runtime_error("qdv::agg: bad .pyr magic in " + file.string());
    std::uint32_t ndims = 0;
    std::uint32_t leaf_log2 = 0;
    read_exact(fd, &ndims, sizeof(ndims), offset);
    offset += sizeof(ndims);
    read_exact(fd, &leaf_log2, sizeof(leaf_log2), offset);
    offset += sizeof(leaf_log2);
    if ((ndims != 1 && ndims != 2) || leaf_log2 > 30)
      throw std::runtime_error("qdv::agg: bad .pyr header in " + file.string());
    // ndims and leaf_log2 fix the size of everything after them: check it
    // against the file before allocating edges or levels, so a forged
    // leaf_log2 cannot commit gigabytes ahead of a short read.
    const std::uint64_t nedges = (std::uint64_t{1} << leaf_log2) + 1;
    std::uint64_t expect = offset + sizeof(p->rows_) +
                           ndims * (sizeof(nedges) + nedges * sizeof(double));
    for (std::uint32_t l = 0; l <= leaf_log2; ++l)
      expect += (std::uint64_t{1} << (l * ndims)) * sizeof(std::uint64_t);
    if (std::filesystem::file_size(file) != expect)
      throw std::runtime_error(
          "qdv::agg: .pyr size does not match its header in " + file.string());
    p->leaf_log2_ = leaf_log2;
    read_exact(fd, &p->rows_, sizeof(p->rows_), offset);
    offset += sizeof(p->rows_);
    for (std::uint32_t axis = 0; axis < ndims; ++axis) {
      std::uint64_t stored = 0;
      read_exact(fd, &stored, sizeof(stored), offset);
      offset += sizeof(stored);
      if (stored != nedges)
        throw std::runtime_error("qdv::agg: bad .pyr edge count in " +
                                 file.string());
      std::vector<double> edges(nedges);
      read_exact(fd, edges.data(), nedges * sizeof(double), offset);
      offset += nedges * sizeof(double);
      check_edges(edges, leaf_log2);
      p->edges_.push_back(std::move(edges));
    }
    io->data_offset = offset;
  }
  // Header checksum (io/checksum.hpp): the header region is [0,
  // data_offset) — verify it once here so corrupt edges can never steer a
  // serve. A corrupt header that fails to parse threw above instead; both
  // roads lead the caller to the exact-path fallback.
  if (const auto& sums = io->integrity.sums) {
    if (const auto* s =
            sums->section(io->integrity.file_name, 0, io->data_offset)) {
      std::vector<std::byte> header(static_cast<std::size_t>(io->data_offset));
      read_exact(io->fd, header.data(), header.size(), 0);
      if (io::crc32c(header.data(), header.size()) != s->crc) {
        bump(io->integrity.stats, &io::IntegrityStats::failures);
        throw io::IntegrityError("qdv::agg: header checksum mismatch in " +
                                 file.string());
      }
      bump(io->integrity.stats, &io::IntegrityStats::verified);
    } else {
      bump(io->integrity.stats, &io::IntegrityStats::unverified);
    }
  } else {
    bump(io->integrity.stats, &io::IntegrityStats::unverified);
  }
  p->io_ = std::move(io);
  return p;
}

bool Pyramid::quarantined() const {
  return io_ && io_->quarantined.load(std::memory_order_relaxed);
}

void Pyramid::quarantine() const {
  if (io_ && !io_->quarantined.exchange(true, std::memory_order_relaxed))
    bump(io_->integrity.stats, &io::IntegrityStats::demotions);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> Pyramid::file_sections()
    const {
  if (!io_)
    throw std::logic_error(
        "qdv::agg: file_sections() requires a file-backed pyramid");
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sections;
  sections.emplace_back(0, io_->data_offset);
  std::uint64_t offset = io_->data_offset;
  for (std::size_t l = 0; l < num_levels(); ++l) {
    const std::uint64_t bytes = level_entries(l) * sizeof(std::uint64_t);
    sections.emplace_back(offset, bytes);
    offset += bytes;
  }
  return sections;
}

std::shared_ptr<const std::vector<std::uint64_t>> Pyramid::level(
    std::size_t l) const {
  if (l >= num_levels())
    throw std::out_of_range("qdv::agg: pyramid level out of range");
  if (!built_.empty()) return built_[l];

  if (quarantined())
    throw io::IntegrityError("qdv::agg: pyramid is quarantined");
  const std::uint64_t entries = level_entries(l);
  auto load = [&] {
    std::uint64_t offset = io_->data_offset;
    for (std::size_t k = 0; k < l; ++k)
      offset += level_entries(k) * sizeof(std::uint64_t);
    const std::uint64_t nbytes = entries * sizeof(std::uint64_t);
    auto counts = std::make_shared<std::vector<std::uint64_t>>(entries);
    read_exact(io_->fd, counts->data(), nbytes, offset);
    // Per-level checksum, verified at decode granularity: a cached level is
    // never re-verified; a mismatch quarantines the whole pyramid and the
    // zoom layer falls back to the exact kernels.
    const auto& integrity = io_->integrity;
    const auto* s = integrity.sums
                        ? integrity.sums->section(integrity.file_name, offset,
                                                  nbytes)
                        : nullptr;
    if (s) {
      if (io::crc32c(counts->data(), static_cast<std::size_t>(nbytes)) !=
          s->crc) {
        bump(integrity.stats, &io::IntegrityStats::failures);
        quarantine();
        throw io::IntegrityError(
            "qdv::agg: level " + std::to_string(l) +
            " checksum mismatch in " + integrity.file_name);
      }
      bump(integrity.stats, &io::IntegrityStats::verified);
    } else {
      bump(integrity.stats, &io::IntegrityStats::unverified);
    }
    return counts;
  };

  const std::string key = io_->prefix + "|L" + std::to_string(l);
  if (auto hit = io_->budget->get(key, io::ResidentClass::kPyramid))
    return std::static_pointer_cast<const std::vector<std::uint64_t>>(hit);
  auto counts = load();
  io_->budget->put(key, counts, entries * sizeof(std::uint64_t),
                   io::ResidentClass::kPyramid);
  return counts;
}

SlicePlan Pyramid::plan_slice_at(std::size_t axis, std::size_t level,
                                 double view_lo, double view_hi) const {
  const auto& e = edges_[axis];
  const double a = view_lo > e.front() ? view_lo : e.front();
  const double b = view_hi < e.back() ? view_hi : e.back();
  SlicePlan p;
  p.level = level;
  if (!(a < b)) return p;  // viewport misses the domain (or is NaN): empty

  const std::size_t n = bins_at(level);
  // Last level edge <= a (edge(0) <= a holds after clamping).
  std::size_t lo = 0, hi = n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (edge(axis, level, mid) <= a)
      lo = mid;
    else
      hi = mid - 1;
  }
  p.lo = lo;
  // First level edge >= b (edge(n) >= b holds after clamping).
  lo = 0;
  hi = n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (edge(axis, level, mid) >= b)
      hi = mid;
    else
      lo = mid + 1;
  }
  p.hi = lo > p.lo ? lo : p.lo;
  return p;
}

std::optional<SlicePlan> Pyramid::plan_slice(std::size_t axis, double view_lo,
                                             double view_hi,
                                             std::size_t nbins) const {
  if (nbins == 0) return std::nullopt;
  SlicePlan coarsest = plan_slice_at(axis, 0, view_lo, view_hi);
  if (coarsest.bins() == 0) return coarsest;  // empty at every level
  for (std::size_t l = 0; l <= leaf_log2_; ++l) {
    SlicePlan p = l == 0 ? coarsest : plan_slice_at(axis, l, view_lo, view_hi);
    if (p.bins() >= nbins) return p;
  }
  return std::nullopt;  // below the resolution threshold even at the leaf
}

std::vector<double> Pyramid::slice_edges(std::size_t axis,
                                         const SlicePlan& plan) const {
  std::vector<double> out;
  if (plan.bins() == 0) return out;
  out.reserve(plan.bins() + 1);
  for (std::size_t j = plan.lo; j <= plan.hi; ++j)
    out.push_back(edge(axis, plan.level, j));
  return out;
}

Cover Pyramid::classify(std::size_t axis, std::size_t level, std::size_t j,
                        const Interval& c) const {
  if (c.empty()) return Cover::kOutside;
  const double a = edge(axis, level, j);
  const double b = edge(axis, level, j + 1);
  // The node's value set is [a, b), except the last node of a level which is
  // closed at the domain top (Bins::locate clamps the final edge in).
  const bool last = j + 1 == bins_at(level);
  if (c.hi < a || (c.hi == a && c.hi_open)) return Cover::kOutside;
  if (last ? (c.lo > b || (c.lo == b && c.lo_open)) : !(c.lo < b))
    return Cover::kOutside;
  const bool lo_in = c.lo < a || (c.lo == a && !c.lo_open);
  const bool hi_in =
      last ? (c.hi > b || (c.hi == b && !c.hi_open)) : !(c.hi < b);
  return lo_in && hi_in ? Cover::kInside : Cover::kPartial;
}

bool Pyramid::node_servable(std::size_t axis, std::size_t level, std::size_t j,
                            const Interval& cond) const {
  if (classify(axis, level, j, cond) != Cover::kPartial) return true;
  if (level == leaf_log2_) return false;
  return node_servable(axis, level + 1, 2 * j, cond) &&
         node_servable(axis, level + 1, 2 * j + 1, cond);
}

bool Pyramid::servable1d(const SlicePlan& plan, const Interval* cond) const {
  if (!cond) return true;
  for (std::size_t j = plan.lo; j < plan.hi; ++j)
    if (!node_servable(0, plan.level, j, *cond)) return false;
  return true;
}

bool Pyramid::servable2d(const SlicePlan& p0, const SlicePlan& p1,
                         const Interval* c0, const Interval* c1) const {
  // Classification is per-axis, so the 2D descent terminates exactly when
  // each axis's descent terminates over its own window.
  if (c0)
    for (std::size_t j = p0.lo; j < p0.hi; ++j)
      if (!node_servable(0, p0.level, j, *c0)) return false;
  if (c1)
    for (std::size_t j = p1.lo; j < p1.hi; ++j)
      if (!node_servable(1, p1.level, j, *c1)) return false;
  return true;
}

const std::vector<std::uint64_t>& Pyramid::level_pinned(
    std::size_t l,
    std::vector<std::shared_ptr<const std::vector<std::uint64_t>>>& pins)
    const {
  if (pins[l] == nullptr) pins[l] = level(l);
  return *pins[l];
}

std::uint64_t Pyramid::node_count1d(
    std::size_t level, std::size_t j, const Interval* cond,
    std::vector<std::shared_ptr<const std::vector<std::uint64_t>>>& pins)
    const {
  if (cond) {
    switch (classify(0, level, j, *cond)) {
      case Cover::kOutside:
        return 0;
      case Cover::kInside:
        break;
      case Cover::kPartial:
        if (level == leaf_log2_)
          throw std::logic_error(
              "qdv::agg: descent past the leaf (caller skipped servable1d)");
        return node_count1d(level + 1, 2 * j, cond, pins) +
               node_count1d(level + 1, 2 * j + 1, cond, pins);
    }
  }
  return level_pinned(level, pins)[j];
}

std::vector<std::uint64_t> Pyramid::slice_counts1d(const SlicePlan& plan,
                                                   const Interval* cond) const {
  std::vector<std::shared_ptr<const std::vector<std::uint64_t>>> pins(
      num_levels());
  std::vector<std::uint64_t> out(plan.bins(), 0);
  for (std::size_t j = plan.lo; j < plan.hi; ++j)
    out[j - plan.lo] = node_count1d(plan.level, j, cond, pins);
  return out;
}

std::uint64_t Pyramid::node_count2d(
    std::size_t level, std::size_t j0, std::size_t j1, const Interval* c0,
    const Interval* c1,
    std::vector<std::shared_ptr<const std::vector<std::uint64_t>>>& pins)
    const {
  const Cover v0 = c0 ? classify(0, level, j0, *c0) : Cover::kInside;
  if (v0 == Cover::kOutside) return 0;
  const Cover v1 = c1 ? classify(1, level, j1, *c1) : Cover::kInside;
  if (v1 == Cover::kOutside) return 0;
  if (v0 == Cover::kInside && v1 == Cover::kInside)
    return level_pinned(level, pins)[j0 * bins_at(level) + j1];
  if (level == leaf_log2_)
    throw std::logic_error(
        "qdv::agg: descent past the leaf (caller skipped servable2d)");
  std::uint64_t total = 0;
  for (std::size_t a = 0; a < 2; ++a)
    for (std::size_t b = 0; b < 2; ++b)
      total +=
          node_count2d(level + 1, 2 * j0 + a, 2 * j1 + b, c0, c1, pins);
  return total;
}

std::vector<std::uint64_t> Pyramid::slice_counts2d(const SlicePlan& p0,
                                                   const SlicePlan& p1,
                                                   const Interval* c0,
                                                   const Interval* c1) const {
  if (p0.level != p1.level)
    throw std::invalid_argument("qdv::agg: 2D slice plans must share a level");
  std::vector<std::shared_ptr<const std::vector<std::uint64_t>>> pins(
      num_levels());
  std::vector<std::uint64_t> out(p0.bins() * p1.bins(), 0);
  for (std::size_t j0 = p0.lo; j0 < p0.hi; ++j0)
    for (std::size_t j1 = p1.lo; j1 < p1.hi; ++j1)
      out[(j0 - p0.lo) * p1.bins() + (j1 - p1.lo)] =
          node_count2d(p0.level, j0, j1, c0, c1, pins);
  return out;
}

std::uint64_t Pyramid::total_count_bytes() const {
  std::uint64_t total = 0;
  for (std::size_t l = 0; l < num_levels(); ++l)
    total += level_entries(l) * sizeof(std::uint64_t);
  return total;
}

std::string pyramid_filename(const std::string& var) { return var + ".pyr"; }

std::string pyramid_filename(const std::string& x, const std::string& y) {
  return x + "__" + y + ".pyr";
}

}  // namespace qdv::agg
