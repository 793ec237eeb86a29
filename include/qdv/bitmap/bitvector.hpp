// WAH-compressed bitvector: the core data structure of the query engine.
//
// Bits are grouped into 31-bit groups packed into 32-bit words (see
// DESIGN.md Section 1 for the word layout). Logical operations cost
// O(compressed words), not O(bits), which is what makes bitmap indices
// viable for the paper's query-driven workloads.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <vector>

namespace qdv {

namespace kern {
struct BitVectorOps;
}  // namespace kern

namespace detail {
/// memcpy-based unaligned read from a serialized byte image (mapped files
/// give no alignment guarantees past the page start). Throws on overrun.
template <typename T>
T read_unaligned(std::span<const std::byte> image, std::size_t offset) {
  if (offset + sizeof(T) > image.size())
    throw std::runtime_error("truncated serialized image");
  T value;
  std::memcpy(&value, image.data() + offset, sizeof(T));
  return value;
}
}  // namespace detail

class BitVector {
 public:
  /// Number of payload bits per compressed word.
  static constexpr std::uint32_t kGroupBits = 31;

  BitVector() = default;

  /// Append @p count copies of @p value at the end of the vector.
  void append_run(bool value, std::uint64_t count);

  /// Append a single bit.
  void append_bit(bool value) { append_run(value, 1); }

  /// A vector of @p nbits zeros / ones.
  static BitVector zeros(std::uint64_t nbits);
  static BitVector ones(std::uint64_t nbits);

  /// Build from a sorted list of set-bit positions, padded to @p nbits.
  static BitVector from_positions(std::span<const std::uint32_t> positions,
                                  std::uint64_t nbits);

  /// Logical operations; operands of different lengths are zero-extended.
  friend BitVector operator&(const BitVector& a, const BitVector& b);
  friend BitVector operator|(const BitVector& a, const BitVector& b);
  friend BitVector operator^(const BitVector& a, const BitVector& b);
  BitVector operator~() const;

  bool operator==(const BitVector& other) const = default;

  /// Number of set bits.
  std::uint64_t count() const;

  /// Total number of bits appended so far.
  std::uint64_t size() const { return nbits_; }

  /// Number of compressed words (excluding the partial tail group).
  std::size_t word_count() const { return words_.size(); }

  /// Heap bytes used by the compressed representation.
  std::size_t memory_bytes() const { return words_.capacity() * sizeof(std::uint32_t); }

  /// Positions of all set bits, ascending.
  std::vector<std::uint32_t> to_positions() const;

  /// Value of bit @p pos (linear in compressed words; intended for tests).
  bool test(std::uint64_t pos) const;

  /// Invoke @p fn(position) for every set bit, ascending.
  ///
  /// Scalar reference implementation: one callback per set bit, fills
  /// expanded bit by bit. Hot paths use qdv::kern::for_each_set_blocked
  /// (bitmap/kernels.hpp) instead; this stays element-at-a-time on purpose —
  /// it is the differential-test baseline for the block kernels.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    std::uint64_t pos = 0;
    for (const std::uint32_t w : words_) {
      if (w & kFillFlag) {
        const std::uint64_t run_bits = static_cast<std::uint64_t>(w & kCountMask) * kGroupBits;
        if (w & kFillValueBit)
          for (std::uint64_t i = 0; i < run_bits; ++i) fn(pos + i);
        pos += run_bits;
      } else {
        std::uint32_t bits = w;
        while (bits) {
          fn(pos + static_cast<std::uint32_t>(std::countr_zero(bits)));
          bits &= bits - 1;
        }
        pos += kGroupBits;
      }
    }
    std::uint32_t bits = active_;
    while (bits) {
      fn(pos + static_cast<std::uint32_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }

  /// Binary serialization (used by the on-disk index format). load()
  /// validates the header (word count consistent with the bit count, tail
  /// width below a group) before allocating, so a corrupt or truncated
  /// stream throws instead of attempting a huge resize, and refuses a
  /// record that fails record_fault().
  void save(std::ostream& out) const;
  static BitVector load(std::istream& in);

  /// Deserialize one record from a serialized image (e.g. a memory-mapped
  /// index file), starting at @p offset and advancing it past the record.
  static BitVector load(std::span<const std::byte> image, std::size_t& offset);

  /// Byte length of the serialized record at @p offset, computed from its
  /// header alone — used to skip records without decoding them. Throws
  /// std::runtime_error when the record would overrun @p image.
  static std::size_t serialized_size(std::span<const std::byte> image,
                                     std::size_t offset);

  /// What is wrong with a serialized record of @p nbits bits whose words
  /// are @p words and whose tail group is @p active, @p active_bits wide:
  /// "tail width" (not nbits % 31), "tail bits" (set above that width),
  /// "word count" (more words than groups) or "group count" (the words
  /// cover other than nbits / 31 groups); nullptr when it is well formed.
  /// These are the checks load() makes; an index checks its segments with
  /// them in place.
  static const char* record_fault(std::uint64_t nbits,
                                  std::span<const std::uint32_t> words,
                                  std::uint32_t active,
                                  std::uint32_t active_bits);

  /// Bytes of a serialized record before its compressed words:
  ///   nbits (u64) | nwords (u64) | active (u32) | active_bits (u32)
  static constexpr std::size_t kRecordHeaderBytes = 24;

 private:
  static constexpr std::uint32_t kFillFlag = 0x80000000u;
  static constexpr std::uint32_t kFillValueBit = 0x40000000u;
  static constexpr std::uint32_t kCountMask = 0x3FFFFFFFu;
  static constexpr std::uint32_t kLiteralMask = 0x7FFFFFFFu;

  void append_fill(bool value, std::uint64_t groups);
  /// One group: a fill when all zeros or all ones (the canonical form),
  /// else a literal. Inline, since the word loops call it per group.
  void append_group(std::uint32_t literal) {
    literal &= kLiteralMask;
    if (literal == 0 || literal == kLiteralMask) [[unlikely]]
      append_fill(literal != 0, 1);
    else
      words_.push_back(literal);
  }
  void flush_active();

  friend struct kern::BitVectorOps;
  template <typename Op>
  friend BitVector combine(const BitVector& a, const BitVector& b, Op op);

  std::vector<std::uint32_t> words_;
  std::uint32_t active_ = 0;  // partial tail group, LSB-first
  std::uint32_t active_bits_ = 0;
  std::uint64_t nbits_ = 0;
};

}  // namespace qdv
