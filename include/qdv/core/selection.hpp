// Selection: an immutable handle to one canonicalized query over an
// Engine's dataset. All derived quantities — counts, matching ids, raw
// bitvectors, histograms, summary statistics — are served through the
// engine's shared per-timestep cache, so driving many views from one
// selection pays the index work once.
//
// Ownership: a Selection shares the engine's state (dataset + budget +
// cache) and its own immutable ExecutionPlan; copying is cheap and handles
// stay valid after the originating Engine object is destroyed.
// Thread-safety: all methods are const and safe to call concurrently, on
// one Selection or on many Selections sharing one engine/mapped dataset.
// Lifetime: bitvectors returned by bits() are shared_ptr pins — they
// survive cache eviction; spans inside histogram/ids paths come from the
// dataset's tables and stay valid for the table's lifetime.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bitmap/histogram.hpp"
#include "core/engine.hpp"
#include "core/plan.hpp"
#include "core/statistics.hpp"

namespace qdv::core {

/// How zoom_histogram* answers. kAuto serves from the pyramid tier whenever
/// the request is geometrically servable and falls back to the exact kernel
/// path otherwise; kExact always runs the kernels — on the same snapped
/// grid when the request is servable, so it is the bit-exact differential
/// twin of the kAuto answer (test_pyramid / qdvbench zoom verification).
enum class ZoomMode { kAuto, kExact };

/// The resolved pyramid route of one servable zoom request: the snapped
/// level/bin windows. Pure geometry (edges only, no counts) — computed
/// identically by zoom_plan*() and the serve itself, which is what lets the
/// svc layer build level-tagged cache keys that cannot diverge from the
/// served result.
struct ZoomPlan {
  std::size_t level = 0;
  std::size_t xlo = 0, xhi = 0;  // snapped bin window on the zoom x axis
  std::size_t ylo = 0, yhi = 0;  // 2D zooms only
  bool pair = false;             // served from a pair pyramid
  bool operator==(const ZoomPlan&) const = default;
};

struct Zoom1DResult {
  Histogram1D hist;
  bool pyramid = false;  // true when served from pyramid levels
  int level = -1;        // snapped level (also set on the kExact twin)
};

struct Zoom2DResult {
  Histogram2D hist;
  bool pyramid = false;
  int level = -1;
};

class Selection {
 public:
  /// Invalid handle; assign from Engine::select() / Engine::all() before use.
  Selection() = default;

  bool valid() const { return state_ != nullptr; }
  /// True for the match-everything selection (no predicate).
  bool selects_all() const;

  /// Number of records matching at timestep @p t.
  std::uint64_t count(std::size_t t) const;

  /// Identifier values ("id" column) of the matching records, row-ascending.
  std::vector<std::uint64_t> ids(std::size_t t) const;

  /// The evaluated (cached, shared) bitvector at timestep @p t.
  std::shared_ptr<const BitVector> bits(std::size_t t) const;

  /// This selection AND an extra condition — a new Selection whose leaf
  /// bitvectors are shared with this one through the cache.
  Selection refine(const std::string& query_text) const;
  Selection refine(QueryPtr extra) const;

  /// Conditional histograms over the table-local domains, tallying only the
  /// matching records (bins shared with HistogramEngine semantics).
  Histogram1D histogram1d(std::size_t t, const std::string& variable,
                          std::size_t nbins,
                          BinningMode binning = BinningMode::kUniform) const;
  Histogram2D histogram2d(std::size_t t, const std::string& x,
                          const std::string& y, std::size_t nxbins,
                          std::size_t nybins,
                          BinningMode binning = BinningMode::kUniform) const;

  /// Zoom/pan histograms (DESIGN.md §14): @p nbins bins over the viewport
  /// [view_lo, view_hi) of @p variable, restricted to this selection. Under
  /// kAuto a servable request — marginal conjunction predicate, viewport
  /// wide enough for nbins at some pyramid level, condition decidable by
  /// node descent — snaps the viewport to pyramid-level bin edges and is
  /// answered in O(visible bins); anything else runs the exact kernels over
  /// viewport-uniform bins. The served edges are the snapped grid, so
  /// consecutive pans that snap identically share one svc cache entry.
  /// Throws std::invalid_argument unless view_hi > view_lo and nbins > 0.
  Zoom1DResult zoom_histogram1d(std::size_t t, const std::string& variable,
                                double view_lo, double view_hi,
                                std::size_t nbins,
                                ZoomMode mode = ZoomMode::kAuto) const;
  Zoom2DResult zoom_histogram2d(std::size_t t, const std::string& x,
                                const std::string& y, double view_lo_x,
                                double view_hi_x, double view_lo_y,
                                double view_hi_y, std::size_t nxbins,
                                std::size_t nybins,
                                ZoomMode mode = ZoomMode::kAuto) const;

  /// The pyramid route the matching zoom_histogram* call would take, or
  /// nullopt when it would run the exact fallback. Never throws on bad
  /// viewports (returns nullopt), so cache-key builders can call it first.
  std::optional<ZoomPlan> zoom_plan1d(std::size_t t,
                                      const std::string& variable,
                                      double view_lo, double view_hi,
                                      std::size_t nbins) const;
  std::optional<ZoomPlan> zoom_plan2d(std::size_t t, const std::string& x,
                                      const std::string& y, double view_lo_x,
                                      double view_hi_x, double view_lo_y,
                                      double view_hi_y, std::size_t nxbins,
                                      std::size_t nybins) const;

  /// Summary statistics of @p variable over the matching records.
  SummaryStats summary(std::size_t t, const std::string& variable) const;

  /// The canonical AST (nullptr when selects_all()).
  const QueryPtr& query() const;
  const ExecutionPlan& plan() const;  // throws on an invalid handle
  const std::string& cache_key() const;
  std::string explain() const;

  Engine engine() const;

 private:
  friend class Engine;
  Selection(std::shared_ptr<detail::EngineState> state,
            std::shared_ptr<const ExecutionPlan> plan);

  const io::TimestepTable& table(std::size_t t) const;

  std::shared_ptr<detail::EngineState> state_;
  std::shared_ptr<const ExecutionPlan> plan_;
};

}  // namespace qdv::core
