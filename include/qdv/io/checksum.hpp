// On-disk integrity layer (DESIGN.md §15): CRC32C checksums over every
// dataset artifact, recorded in one small text sidecar per directory
// (`checksums.qdv`) so the format itself is untouched and pre-checksum
// datasets keep opening — they just verify as "unverified".
//
// Granularity follows decode granularity, so out-of-core verification cost
// stays O(bytes touched): whole-file entries for columns / meta / manifest
// / `.idi` id indices, plus per-section entries for the lazily-decoded
// regions — each WAH segment of a `.bmi`, each level count array of a
// `.pyr`, and the headers in front of them.
//
// Sidecar format (text, line-oriented):
//   qdv_checksums 1
//   file <name> <size> <crc32c-hex>
//   section <name> <offset> <length> <crc32c-hex>
//
// Thread-safety: ChecksumSet is immutable after load()/building; crc32c()
// is pure; IntegrityStats is all-atomic.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace qdv::io {

/// A checksum mismatch (or a checksummed artifact whose size changed): the
/// typed error degradation paths catch. Artifacts with a fallback (bitmap
/// segments, pyramid levels) quarantine and demote; ground-truth artifacts
/// (columns, meta, manifest) surface it to the caller.
class IntegrityError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC32C (Castagnoli) over @p n bytes, software slice-by-8. @p seed chains
/// incremental computations (pass the previous return value).
std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed = 0);

/// Streaming whole-file CRC32C. Throws std::runtime_error when unreadable.
std::uint32_t crc32c_file(const std::filesystem::path& file);

/// Verification/degradation event counters, shared dataset-wide (surfaced
/// through EngineStats and the svc stats verb). Counters count events, not
/// files: a segment decoded twice under budget pressure verifies twice.
struct IntegrityStats {
  std::atomic<std::uint64_t> verified{0};    // checks that passed
  std::atomic<std::uint64_t> failures{0};    // checksum mismatches detected
  std::atomic<std::uint64_t> demotions{0};   // artifacts quarantined
  std::atomic<std::uint64_t> unverified{0};  // decodes with no recorded sum
};

inline constexpr const char* kChecksumSidecarName = "checksums.qdv";

/// The recorded checksums of one directory (dataset root or one timestep).
class ChecksumSet {
 public:
  struct FileSum {
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
  };
  struct Section {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint32_t crc = 0;
  };

  /// Load @p dir's sidecar; nullptr when the directory has none (the
  /// backward-compatible "unverified" case). Throws std::runtime_error on a
  /// malformed sidecar.
  static std::shared_ptr<const ChecksumSet> load_dir(
      const std::filesystem::path& dir);

  /// Whole-file entry of @p name, or nullptr when not recorded.
  const FileSum* file(const std::string& name) const;

  /// Section entry exactly covering [@p offset, @p offset + @p length) of
  /// @p name, or nullptr when not recorded at that granularity.
  const Section* section(const std::string& name, std::uint64_t offset,
                         std::uint64_t length) const;

  /// All sections recorded for @p name (ascending offset), or nullptr.
  const std::vector<Section>* sections(const std::string& name) const;

  /// File names with whole-file entries, sorted (fsck iterates these).
  std::vector<std::string> file_names() const;

  // --- builder side (write_dataset_checksums) ---
  void set_file(const std::string& name, std::uint64_t size,
                std::uint32_t crc);
  void add_section(const std::string& name, std::uint64_t offset,
                   std::uint64_t length, std::uint32_t crc);
  /// Write this set as @p dir's sidecar (atomic replace via rename).
  void save_dir(const std::filesystem::path& dir) const;

 private:
  std::unordered_map<std::string, FileSum> files_;
  std::unordered_map<std::string, std::vector<Section>> sections_;
};

/// Walk the dataset at @p dir and (re)write every checksum sidecar: one at
/// the root covering the manifest, one per timestep directory covering
/// meta / columns / id files whole-file and `.bmi` / `.pyr` both whole-file
/// and per-section. Called by every dataset writer after generation; also
/// the recovery path after an intentional format migration.
void write_dataset_checksums(const std::filesystem::path& dir);

/// One artifact's fsck outcome.
struct FsckEntry {
  enum class Status { kOk, kFailed, kUnverified };
  std::string rel;  // path relative to the dataset root
  Status status = Status::kOk;
  std::string detail;  // which section failed / why unverified
};

struct FsckReport {
  std::vector<FsckEntry> entries;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t unverified = 0;
  std::size_t sections_checked = 0;
  bool damaged() const { return failed > 0; }
};

/// Verify every artifact of the dataset at @p dir against its sidecars:
/// whole-file sums, then per-section sums when a whole file mismatches (to
/// name the damaged region). Files without entries — or whole directories
/// without sidecars — report kUnverified. Never throws on damage; throws
/// std::runtime_error only when @p dir is not a dataset.
FsckReport fsck_dataset(const std::filesystem::path& dir);

}  // namespace qdv::io
