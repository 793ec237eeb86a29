#include "core/custom_scan.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace qdv::core {

namespace {

/// Compile the query into a per-record predicate over the raw columns.
std::function<bool(std::uint32_t)> compile(const Query& q,
                                           const io::TimestepTable& table) {
  switch (q.kind()) {
    case Query::Kind::kCompare: {
      const auto& cq = static_cast<const CompareQuery&>(q);
      const std::span<const double> values = table.column(cq.variable());
      const Interval iv = interval_for(cq.op(), cq.value());
      return [values, iv](std::uint32_t row) { return iv.contains(values[row]); };
    }
    case Query::Kind::kInterval: {
      const auto& vq = static_cast<const IntervalQuery&>(q);
      const std::span<const double> values = table.column(vq.variable());
      const Interval iv = vq.interval();
      return [values, iv](std::uint32_t row) { return iv.contains(values[row]); };
    }
    case Query::Kind::kIdIn: {
      const auto& iq = static_cast<const IdInQuery&>(q);
      const std::span<const std::uint64_t> ids = table.id_column(iq.variable());
      const std::vector<std::uint64_t>& search = iq.ids();
      return [ids, &search](std::uint32_t row) {
        return std::binary_search(search.begin(), search.end(), ids[row]);
      };
    }
    case Query::Kind::kAnd: {
      const auto& aq = static_cast<const AndQuery&>(q);
      auto lhs = compile(aq.lhs(), table);
      auto rhs = compile(aq.rhs(), table);
      return [lhs = std::move(lhs), rhs = std::move(rhs)](std::uint32_t row) {
        return lhs(row) && rhs(row);
      };
    }
    case Query::Kind::kOr: {
      const auto& oq = static_cast<const OrQuery&>(q);
      auto lhs = compile(oq.lhs(), table);
      auto rhs = compile(oq.rhs(), table);
      return [lhs = std::move(lhs), rhs = std::move(rhs)](std::uint32_t row) {
        return lhs(row) || rhs(row);
      };
    }
    case Query::Kind::kNot: {
      const auto& nq = static_cast<const NotQuery&>(q);
      auto inner = compile(nq.operand(), table);
      return [inner = std::move(inner)](std::uint32_t row) { return !inner(row); };
    }
  }
  throw std::logic_error("CustomScan: bad query kind");
}

}  // namespace

Histogram2D CustomScan::histogram2d(const std::string& x, const std::string& y,
                                    std::size_t nxbins, std::size_t nybins,
                                    const Query* condition) const {
  const std::span<const double> xs = table_->column(x);
  const std::span<const double> ys = table_->column(y);
  const auto [xlo, xhi] = table_->domain(x);
  const auto [ylo, yhi] = table_->domain(y);
  const Bins xbins = make_uniform_bins(xlo, xhi > xlo ? xhi : xlo + 1.0, nxbins);
  const Bins ybins = make_uniform_bins(ylo, yhi > ylo ? yhi : ylo + 1.0, nybins);
  // Nested per-row count arrays: the layout the paper's custom code used.
  std::vector<std::vector<std::uint64_t>> counts(
      nxbins, std::vector<std::uint64_t>(nybins, 0));
  std::function<bool(std::uint32_t)> predicate;
  if (condition != nullptr) predicate = compile(*condition, *table_);
  for (std::uint32_t row = 0; row < xs.size(); ++row) {
    if (predicate && !predicate(row)) continue;
    const std::ptrdiff_t bx = xbins.locate(xs[row]);
    const std::ptrdiff_t by = ybins.locate(ys[row]);
    if (bx >= 0 && by >= 0)
      ++counts[static_cast<std::size_t>(bx)][static_cast<std::size_t>(by)];
  }
  Histogram2D h;
  h.xbins = xbins;
  h.ybins = ybins;
  h.counts.assign(nxbins * nybins, 0);
  for (std::size_t ix = 0; ix < nxbins; ++ix)
    for (std::size_t iy = 0; iy < nybins; ++iy) h.at(ix, iy) = counts[ix][iy];
  return h;
}

BitVector CustomScan::select(const Query& q) const {
  const std::function<bool(std::uint32_t)> predicate = compile(q, *table_);
  BitVector out;
  for (std::uint32_t row = 0; row < table_->num_rows(); ++row)
    out.append_bit(predicate(row));
  return out;
}

std::vector<std::uint32_t> CustomScan::find_ids(
    const std::vector<std::uint64_t>& search) const {
  std::vector<std::uint64_t> sorted(search);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  const std::span<const std::uint64_t> ids = table_->id_column("id");
  std::vector<std::uint32_t> out;
  for (std::uint32_t row = 0; row < ids.size(); ++row)
    if (std::binary_search(sorted.begin(), sorted.end(), ids[row]))
      out.push_back(row);
  return out;
}

}  // namespace qdv::core
