// MemoryBudget: the unified, byte-denominated, cost-aware LRU cache behind
// the out-of-core engine (DESIGN.md Section 9).
//
// One budget instance governs every resident the engine can re-create from
// disk: mapped column pages, mapped bitmap-index images, and evaluated
// query bitvectors. Each resident is charged its byte cost; when the total
// exceeds the configured budget, least-recently-used residents are evicted
// (their optional release hook runs — e.g. dropping a column's mapped
// pages — and their payload reference is dropped).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace qdv::io {

/// What kind of resident a cache entry is; stats are kept per class and the
/// engine's entry-capacity knob applies to the kBitVector class only.
enum class ResidentClass : unsigned {
  kColumn = 0,        // mapped raw column pages
  kIndexSegment = 1,  // mapped .bmi images, pinned index directories and id indices
  kBitVector = 2,     // evaluated per-timestep query bitvectors
  kResult = 3,        // completed service results (svc::QueryService cache)
  kPyramid = 4,       // lazily-loaded histogram-pyramid levels (agg::Pyramid)
  kBrush = 5,         // materialized brush bitvectors (core::Brush slots)
};

inline constexpr std::size_t kNumResidentClasses = 6;

/// Snapshot of one class's counters.
struct ResidentClassStats {
  std::uint64_t entries = 0;       // live cached residents
  std::uint64_t bytes = 0;         // bytes currently charged
  std::uint64_t hits = 0;          // get() calls answered from the cache
  std::uint64_t misses = 0;        // get() calls that found nothing
  std::uint64_t evictions = 0;     // residents dropped by the LRU policy
  std::uint64_t loaded_bytes = 0;  // cumulative bytes charged via put()
};

/// Snapshot of the whole budget (see MemoryBudget::stats()).
struct MemoryBudgetStats {
  std::uint64_t budget_bytes = 0;    // configured ceiling (kUnlimited = none)
  std::uint64_t resident_bytes = 0;  // total bytes currently charged
  std::uint64_t entries = 0;
  std::uint64_t evictions = 0;       // all classes
  std::uint64_t loaded_bytes = 0;    // cumulative charged (I/O volume proxy)
  ResidentClassStats cls[kNumResidentClasses];

  const ResidentClassStats& of(ResidentClass c) const {
    return cls[static_cast<unsigned>(c)];
  }
};

/// Thread-safe cost-aware LRU cache with a byte budget.
///
/// Ownership: payloads are held as shared_ptr<const void>; get() returns a
/// pin, so a resident being evicted never invalidates a reader that already
/// holds it. Entries may additionally be `pinned` (never evicted — used for
/// id indices, whose raw pointers are handed out by TimestepTable).
///
/// Thread-safety: every method is guarded by one internal mutex. Release
/// hooks run while that mutex is held, so they must NOT call back into the
/// budget (the io layer's hooks only drop mapped pages via madvise).
///
/// Eviction: put() inserts the entry, then evicts LRU non-pinned entries
/// until resident_bytes <= budget. An entry larger than the whole budget is
/// evicted immediately after insertion — the caller's pin keeps the payload
/// alive for the operation in flight, which is how a column bigger than the
/// budget still completes as a streaming scan.
class MemoryBudget {
 public:
  static constexpr std::uint64_t kUnlimited = ~std::uint64_t{0};
  static constexpr std::size_t kNoEntryCap = ~std::size_t{0};

  explicit MemoryBudget(std::uint64_t budget_bytes = kUnlimited);

  /// Optional per-entry eviction hook (e.g. madvise(DONTNEED) a mapping).
  /// Must not call back into this MemoryBudget.
  using ReleaseHook = std::function<void()>;

  /// Pin the resident under @p key, refreshing its recency; nullptr on miss.
  std::shared_ptr<const void> get(const std::string& key, ResidentClass cls);

  /// Insert (or refresh) a resident and evict to the budget. When @p key is
  /// already present the existing entry is kept (first writer wins, matching
  /// the engine's lock-free evaluation race) and only its recency refreshes.
  void put(const std::string& key, std::shared_ptr<const void> payload,
           std::uint64_t bytes, ResidentClass cls, ReleaseHook on_evict = {},
           bool pinned = false);

  void erase(const std::string& key);
  /// Drop every entry, including pinned ones. Explicit drops (erase/clear)
  /// run the release hooks but are not counted as evictions — the
  /// evictions counter tracks LRU-policy decisions only.
  void clear();
  /// Drop every entry of @p cls (used by Engine::clear_cache()).
  void clear_class(ResidentClass cls);

  void set_budget(std::uint64_t bytes);
  std::uint64_t budget() const;

  /// Maximum live entries of @p cls (LRU-evicts that class beyond the cap).
  /// The engine caps kBitVector and the query service caps kResult at 1024
  /// entries each, so an unlimited byte budget cannot grow without bound.
  void set_class_entry_cap(ResidentClass cls, std::size_t max_entries);
  std::size_t class_entry_cap(ResidentClass cls) const;

  MemoryBudgetStats stats() const;

 private:
  struct Entry;
  using EntryList = std::list<Entry>;
  // Per-class recency list of non-pinned entries (front = most recently
  // used), so class-cap eviction pops its own tail in O(1) instead of
  // scanning the global LRU.
  using ClassList = std::list<EntryList::iterator>;

  struct Entry {
    std::string key;
    std::shared_ptr<const void> payload;
    std::uint64_t bytes = 0;
    ResidentClass cls = ResidentClass::kColumn;
    ReleaseHook on_evict;
    bool pinned = false;
    ClassList::iterator class_pos;  // valid iff !pinned
  };

  void enforce_locked();
  /// Uncharge + unlink + run the release hook of one entry; counts an
  /// eviction only when @p count_eviction (LRU-policy drops, not explicit
  /// erase/clear).
  void remove_locked(EntryList::iterator it, bool count_eviction);

  mutable std::mutex mutex_;
  std::uint64_t budget_bytes_ = kUnlimited;
  // One cap per class; a missing initializer here would silently become a
  // cap of zero, so keep the list in sync with kNumResidentClasses.
  std::size_t entry_caps_[kNumResidentClasses] = {
      kNoEntryCap, kNoEntryCap, kNoEntryCap,
      kNoEntryCap, kNoEntryCap, kNoEntryCap};
  EntryList lru_;  // front = most recently used
  ClassList class_lru_[kNumResidentClasses];
  std::unordered_map<std::string, EntryList::iterator> by_key_;
  std::uint64_t resident_bytes_ = 0;
  ResidentClassStats cls_[kNumResidentClasses];
};

}  // namespace qdv::io
