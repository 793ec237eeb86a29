#include "core/brush.hpp"

#include <atomic>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bitmap/kernels.hpp"

namespace qdv::core {

namespace {

std::uint64_t next_brush_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Brush::Brush(Selection initial, std::shared_ptr<Counters> counters)
    : id_(next_brush_id()),
      counters_(counters ? std::move(counters)
                         : std::make_shared<Counters>()) {
  if (!initial.valid())
    throw std::invalid_argument("Brush: needs a valid selection");
  if (initial.selects_all())
    throw std::invalid_argument(
        "Brush: needs a concrete predicate (select-all has no invertible "
        "AST form)");
  slot_bytes_ = std::make_shared<std::atomic<std::uint64_t>>(0);
  engine_ = initial.engine();
  composed_ = initial.query();
  budget_ = engine_.dataset().memory_budget();
}

Brush::~Brush() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [t, slot] : slots_)
    if (slot.valid) budget_->erase(slot_key(t, slot.epoch));
}

std::uint64_t Brush::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

Brush::Snapshot Brush::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Snapshot{epoch_, composed_};
}

std::uint64_t Brush::bump_locked(Op op) {
  history_.push_back(std::move(op));
  if (history_.size() > kMaxHistory) history_.pop_front();
  return ++epoch_;
}

std::uint64_t Brush::refine(QueryPtr extra) {
  if (!extra) throw std::invalid_argument("Brush::refine: needs a predicate");
  std::lock_guard<std::mutex> lock(mutex_);
  Op rec;
  rec.kind = Op::Kind::kRefine;
  // The extra predicate as its own Selection: the delta path evaluates it
  // through the shared node cache (a leaf probe), never the composed tree.
  // Planning the leaf is O(leaf); the composed predicate itself is only
  // spliced, never re-planned — that is what keeps an edit O(1).
  rec.operand = engine_.select(extra);
  composed_ = Query::land(std::move(composed_), std::move(extra));
  return bump_locked(std::move(rec));
}

std::uint64_t Brush::invert() {
  std::lock_guard<std::mutex> lock(mutex_);
  composed_ = Query::lnot(std::move(composed_));
  Op rec;
  rec.kind = Op::Kind::kInvert;
  return bump_locked(std::move(rec));
}

std::uint64_t Brush::combine(const Brush& other, CombineOp op) {
  // Pin the operand first: only other's lock is held, and it is released
  // before ours is taken, so A.combine(B) racing B.combine(A) cannot
  // deadlock (and self-combination degenerates to two sequential locks).
  Snapshot theirs = other.snapshot();
  // The operand Selection (other's pinned composed, planned) is what the
  // delta path ANDs/ORs against; built before taking our lock.
  Selection operand = engine_.select(theirs.query);
  std::lock_guard<std::mutex> lock(mutex_);
  QueryPtr merged;
  switch (op) {
    case CombineOp::kAnd:
      merged = Query::land(composed_, theirs.query);
      break;
    case CombineOp::kOr:
      merged = Query::lor(composed_, theirs.query);
      break;
    case CombineOp::kAndNot:
      merged = Query::land(composed_, Query::lnot(theirs.query));
      break;
  }
  composed_ = std::move(merged);
  Op rec;
  rec.kind = Op::Kind::kCombine;
  rec.operand = std::move(operand);
  rec.combine_op = op;
  return bump_locked(std::move(rec));
}

std::string Brush::slot_key(std::size_t t, std::uint64_t epoch) const {
  return "brush|#" + std::to_string(id_) + "|t#" + std::to_string(t) +
         "|e#" + std::to_string(epoch);
}

void Brush::store_slot(std::size_t t, std::uint64_t epoch,
                       const std::shared_ptr<const BitVector>& bits) {
  const std::uint64_t bytes = bits->memory_bytes();
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = slots_[t];
  if (slot.valid && slot.epoch >= epoch) return;  // lost to a newer store
  if (slot.valid) budget_->erase(slot_key(t, slot.epoch));
  slot.valid = true;
  slot.epoch = epoch;
  auto counter = slot_bytes_;
  counter->fetch_add(bytes, std::memory_order_relaxed);
  // The hook fires on LRU eviction and on erase alike, keeping
  // resident_bytes() an honest picture of what the budget actually holds;
  // it must stay lock-free (it runs under the budget's mutex).
  budget_->put(slot_key(t, epoch), bits, bytes, io::ResidentClass::kBrush,
               [counter, bytes] {
                 counter->fetch_sub(bytes, std::memory_order_relaxed);
               });
}

std::shared_ptr<const BitVector> Brush::bits(const Snapshot& snap,
                                             std::size_t t) {
  // Route decision under the lock; all evaluation outside it, so readers
  // never serialize behind each other or behind an editing session.
  bool slot_current = false;
  std::uint64_t parent_epoch = 0;
  std::vector<Op> deltas;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slots_.find(t);
    if (it != slots_.end() && it->second.valid) {
      const Slot& slot = it->second;
      const std::uint64_t oldest = epoch_ - history_.size();
      if (slot.epoch == snap.epoch) {
        slot_current = true;
      } else if (slot.epoch < snap.epoch && snap.epoch <= epoch_ &&
                 slot.epoch >= oldest) {
        parent_epoch = slot.epoch;
        deltas.reserve(static_cast<std::size_t>(snap.epoch - slot.epoch));
        for (std::uint64_t e = slot.epoch; e < snap.epoch; ++e)
          deltas.push_back(history_[static_cast<std::size_t>(e - oldest)]);
      }
    }
  }

  if (slot_current) {
    if (auto cached =
            budget_->get(slot_key(t, snap.epoch), io::ResidentClass::kBrush))
      return std::static_pointer_cast<const BitVector>(cached);
  }

  if (!deltas.empty()) {
    if (auto cached = budget_->get(slot_key(t, parent_epoch),
                                   io::ResidentClass::kBrush)) {
      auto bits = std::static_pointer_cast<const BitVector>(cached);
      for (const Op& op : deltas) {
        switch (op.kind) {
          case Op::Kind::kRefine:
            bits = std::make_shared<const BitVector>(*bits &
                                                     *op.operand.bits(t));
            break;
          case Op::Kind::kInvert:
            bits = std::make_shared<const BitVector>(~*bits);
            break;
          case Op::Kind::kCombine: {
            // Held by value: the engine cache may evict the operand at any
            // moment, leaving this pointer its only owner.
            const auto other = op.operand.bits(t);
            switch (op.combine_op) {
              case CombineOp::kAnd:
                bits = std::make_shared<const BitVector>(*bits & *other);
                break;
              case CombineOp::kOr:
                bits = std::make_shared<const BitVector>(*bits | *other);
                break;
              case CombineOp::kAndNot:
                bits = std::make_shared<const BitVector>(*bits & ~*other);
                break;
            }
            break;
          }
        }
      }
      counters_->delta_evals.fetch_add(1, std::memory_order_relaxed);
      store_slot(t, snap.epoch, bits);
      return bits;
    }
  }

  // Parent evicted, history outrun, or first touch: plan and execute the
  // pinned composed predicate from scratch. This is the only place the
  // composed AST meets the planner, and it re-seeds the delta chain.
  auto bits = engine_.select(snap.query).bits(t);
  counters_->full_evals.fetch_add(1, std::memory_order_relaxed);
  store_slot(t, snap.epoch, bits);
  return bits;
}

std::uint64_t Brush::count(const Snapshot& snap, std::size_t t) {
  return bits(snap, t)->count();
}

std::vector<std::uint64_t> Brush::ids(const Snapshot& snap, std::size_t t) {
  const io::TimestepTable& tbl = engine_.dataset().table(t);
  const std::span<const std::uint64_t> id_col = tbl.id_column("id");
  std::vector<std::uint64_t> out;
  kern::for_each_set_blocked(
      *bits(snap, t), [&](std::uint64_t row) { out.push_back(id_col[row]); });
  return out;
}

Histogram1D Brush::histogram1d(const Snapshot& snap, std::size_t t,
                               const std::string& variable, std::size_t nbins,
                               BinningMode binning) {
  const io::TimestepTable& tbl = engine_.dataset().table(t);
  return tbl.engine().histogram1d(variable, nbins, bits(snap, t).get(), binning);
}

Histogram2D Brush::histogram2d(const Snapshot& snap, std::size_t t,
                               const std::string& x, const std::string& y,
                               std::size_t nxbins, std::size_t nybins,
                               BinningMode binning) {
  const io::TimestepTable& tbl = engine_.dataset().table(t);
  return tbl.engine().histogram2d(x, y, nxbins, nybins, bits(snap, t).get(),
                                  binning);
}

SummaryStats Brush::summary(const Snapshot& snap, std::size_t t,
                            const std::string& variable) {
  const io::TimestepTable& tbl = engine_.dataset().table(t);
  return conditional_stats(tbl, variable, bits(snap, t).get());
}

}  // namespace qdv::core
