// Memory-mapped file access: the storage primitive of the out-of-core io
// layer (DESIGN.md Section 9).
//
// MappedFile is a read-only, page-aligned mapping of one on-disk file.
// ColumnHandle<T> is a typed, lazily-mapped view of one raw column file
// with an explicit load/release lifecycle: load() establishes the mapping,
// release() drops the resident pages while keeping every previously handed
// out span valid (the address range stays mapped; the next touch refaults
// the pages from the file).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace qdv::io {

/// Read-only, page-aligned memory mapping of one file.
///
/// Ownership: created through the shared_ptr factory only; the mapping (or
/// the heap fallback buffer) lives exactly as long as the last shared_ptr.
/// Thread-safety: the mapped bytes are immutable, so concurrent reads need
/// no synchronization; the residency hints (advise_*, release_pages) are
/// safe to call concurrently with readers — release_pages() only drops
/// physical pages, never the mapping, so spans into bytes() stay valid for
/// the lifetime of the object.
///
/// Uses POSIX mmap; falls back to reading the whole file into a heap buffer
/// when mmap fails or QDV_NO_MMAP is set (the fallback cannot drop
/// residency, so release_pages() is a no-op there).
class MappedFile {
 public:
  /// Map @p file read-only. Throws std::runtime_error when the file cannot
  /// be opened or mapped.
  static std::shared_ptr<MappedFile> map(const std::filesystem::path& file);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// The mapped file image. Valid for the lifetime of this object,
  /// including across release_pages() calls.
  std::span<const std::byte> bytes() const { return {data_, size_}; }
  std::size_t size() const { return size_; }
  const std::filesystem::path& path() const { return path_; }

  /// True when backed by a real mmap (false: heap fallback).
  bool backed_by_mmap() const { return mmapped_; }

  /// Residency hints (no-ops for the heap fallback).
  void advise_sequential() const;  // expect a front-to-back streaming scan
  void advise_willneed() const;    // asynchronous read-ahead of all pages
  /// Drop the resident pages. The mapping itself stays valid; the next
  /// access refaults the data from the file.
  void release_pages() const;

 private:
  MappedFile() = default;

  std::filesystem::path path_;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mmapped_ = false;
  std::vector<std::byte> fallback_;  // heap copy when !mmapped_
};

/// Typed, lazily-mapped view of one raw little-endian column file.
///
/// Lifecycle: a handle starts unloaded (no file I/O); load() maps the file
/// and returns the values; release() drops resident pages but keeps the
/// mapping, so spans handed out earlier remain valid. The mapping is freed
/// when the handle (and every pin taken via mapping()) is destroyed.
/// Thread-safety: ColumnHandle itself is NOT synchronized — callers
/// (TimestepTable) serialize load()/release(); the returned spans are
/// immutable and safe to read concurrently.
template <typename T>
class ColumnHandle {
 public:
  ColumnHandle(std::filesystem::path file, std::uint64_t rows)
      : path_(std::move(file)), rows_(rows) {}

  /// Map the column file (no-op when already loaded) and return the values.
  /// Throws std::runtime_error when the file is missing or does not hold
  /// exactly the row count's values. (Sizes are compared in values, never
  /// as rows * sizeof(T), which a forged row count could wrap.)
  std::span<const T> load() {
    if (!map_) {
      auto mapped = MappedFile::map(path_);
      if (mapped->size() % sizeof(T) != 0 || mapped->size() / sizeof(T) != rows_)
        throw std::runtime_error("column file " + path_.string() + " holds " +
                                 std::to_string(mapped->size()) +
                                 " bytes, not " + std::to_string(rows_) +
                                 " values");
      map_ = std::move(mapped);
    }
    return values();
  }

  /// The mapped values; empty before the first load().
  std::span<const T> values() const {
    if (!map_) return {};
    return {reinterpret_cast<const T*>(map_->bytes().data()),
            static_cast<std::size_t>(rows_)};
  }

  bool loaded() const { return map_ != nullptr; }

  /// Drop the resident pages (mapping and spans stay valid; the next touch
  /// refaults from the file). No-op when not loaded.
  void release() {
    if (map_) map_->release_pages();
  }

  /// Bytes of column payload governed by this handle.
  std::uint64_t bytes() const { return rows_ * sizeof(T); }

  /// The underlying mapping (nullptr before load()); pin it to keep the
  /// bytes alive independently of this handle.
  const std::shared_ptr<MappedFile>& mapping() const { return map_; }

 private:
  std::filesystem::path path_;
  std::uint64_t rows_ = 0;
  std::shared_ptr<MappedFile> map_;
};

}  // namespace qdv::io
