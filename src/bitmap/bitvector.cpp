#include "bitmap/bitvector.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "bitmap/kernels.hpp"

namespace qdv {

namespace {
constexpr std::uint32_t kFillFlag = 0x80000000u;
constexpr std::uint32_t kFillValueBit = 0x40000000u;
constexpr std::uint32_t kCountMask = 0x3FFFFFFFu;
constexpr std::uint32_t kLiteralMask = 0x7FFFFFFFu;
}  // namespace

void BitVector::append_group(std::uint32_t literal) {
  literal &= kLiteralMask;
  if (literal == 0) {
    append_fill(false, 1);
  } else if (literal == kLiteralMask) {
    append_fill(true, 1);
  } else {
    words_.push_back(literal);
  }
}

void BitVector::append_fill(bool value, std::uint64_t groups) {
  if (groups == 0) return;
  // Extend a trailing fill of the same value when possible.
  if (!words_.empty()) {
    const std::uint32_t last = words_.back();
    if ((last & kFillFlag) && ((last & kFillValueBit) != 0) == value) {
      const std::uint64_t have = last & kCountMask;
      const std::uint64_t take = std::min<std::uint64_t>(groups, kCountMask - have);
      if (take > 0) {
        words_.back() = kFillFlag | (value ? kFillValueBit : 0u) |
                        static_cast<std::uint32_t>(have + take);
        groups -= take;
      }
    }
  }
  while (groups > 0) {
    const std::uint64_t take = std::min<std::uint64_t>(groups, kCountMask);
    words_.push_back(kFillFlag | (value ? kFillValueBit : 0u) |
                     static_cast<std::uint32_t>(take));
    groups -= take;
  }
}

void BitVector::flush_active() {
  assert(active_bits_ == kGroupBits);
  append_group(active_);
  active_ = 0;
  active_bits_ = 0;
}

void BitVector::append_run(bool value, std::uint64_t count) {
  if (count == 0) return;
  nbits_ += count;
  // 1. Top up the partial tail group.
  if (active_bits_ > 0) {
    const std::uint32_t room = kGroupBits - active_bits_;
    const std::uint32_t take = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(room, count));
    if (value) active_ |= ((take == 32 ? 0xFFFFFFFFu : ((1u << take) - 1u)) << active_bits_);
    active_bits_ += take;
    count -= take;
    if (active_bits_ == kGroupBits) flush_active();
    if (count == 0) return;
  }
  // 2. Whole groups become (or extend) a fill.
  const std::uint64_t groups = count / kGroupBits;
  append_fill(value, groups);
  count -= groups * kGroupBits;
  // 3. Remainder starts a fresh tail group.
  if (count > 0) {
    active_ = value ? ((1u << count) - 1u) : 0u;
    active_bits_ = static_cast<std::uint32_t>(count);
  }
}

BitVector BitVector::zeros(std::uint64_t nbits) {
  BitVector v;
  v.append_run(false, nbits);
  return v;
}

BitVector BitVector::ones(std::uint64_t nbits) {
  BitVector v;
  v.append_run(true, nbits);
  return v;
}

BitVector BitVector::from_positions(std::span<const std::uint32_t> positions,
                                    std::uint64_t nbits) {
  BitVector v;
  std::uint64_t cursor = 0;
  for (const std::uint32_t pos : positions) {
    if (pos < cursor) throw std::invalid_argument("from_positions: unsorted input");
    v.append_run(false, pos - cursor);
    v.append_bit(true);
    cursor = static_cast<std::uint64_t>(pos) + 1;
  }
  if (cursor > nbits) throw std::invalid_argument("from_positions: position beyond nbits");
  v.append_run(false, nbits - cursor);
  return v;
}

std::uint64_t BitVector::count() const { return kern::count_words(*this); }

std::vector<std::uint32_t> BitVector::to_positions() const {
  std::vector<std::uint32_t> out;
  kern::to_positions_blocked(*this, out);
  return out;
}

bool BitVector::test(std::uint64_t pos) const {
  std::uint64_t cursor = 0;
  for (const std::uint32_t w : words_) {
    if (w & kFillFlag) {
      const std::uint64_t run = static_cast<std::uint64_t>(w & kCountMask) * kGroupBits;
      if (pos < cursor + run) return (w & kFillValueBit) != 0;
      cursor += run;
    } else {
      if (pos < cursor + kGroupBits) return ((w >> (pos - cursor)) & 1u) != 0;
      cursor += kGroupBits;
    }
  }
  if (pos < cursor + active_bits_) return ((active_ >> (pos - cursor)) & 1u) != 0;
  return false;
}

/// Streaming decoder over the compressed words of a BitVector: yields runs of
/// whole groups (fills) or single literal groups, then zero-fills forever
/// (callers zero-extend shorter operands).
class BitRunDecoder {
 public:
  explicit BitRunDecoder(const BitVector& v) : v_(v) { advance(); }

  bool is_fill() const { return is_fill_; }
  bool fill_value() const { return fill_value_; }
  std::uint64_t groups() const { return groups_; }
  std::uint32_t literal() const { return literal_; }

  /// Consume @p n groups (n <= groups() when is_fill(); n == 1 for literals).
  void consume(std::uint64_t n) {
    groups_ -= n;
    if (groups_ == 0) advance();
  }

 private:
  void advance() {
    if (idx_ < v_.words_.size()) {
      const std::uint32_t w = v_.words_[idx_++];
      if (w & 0x80000000u) {
        is_fill_ = true;
        fill_value_ = (w & 0x40000000u) != 0;
        groups_ = w & 0x3FFFFFFFu;
      } else {
        is_fill_ = false;
        literal_ = w;
        groups_ = 1;
      }
      return;
    }
    if (!tail_emitted_ && v_.active_bits_ > 0) {
      // The partial tail group, zero-padded to a whole group (correct for
      // the zero-extension semantics of mixed-length operands).
      tail_emitted_ = true;
      is_fill_ = false;
      literal_ = v_.active_;
      groups_ = 1;
      return;
    }
    // Past the end: an infinite zero fill.
    is_fill_ = true;
    fill_value_ = false;
    groups_ = ~std::uint64_t{0};
  }

  const BitVector& v_;
  std::size_t idx_ = 0;
  bool tail_emitted_ = false;
  bool is_fill_ = false;
  bool fill_value_ = false;
  std::uint32_t literal_ = 0;
  std::uint64_t groups_ = 0;
};

namespace {

/// The 31-bit group with index @p group of @p v, zero-padded past the end:
/// one pass over the compressed words. Replaces the combine() tail path that
/// extracted the same bits one test() call each (O(31 * words) per operand).
std::uint32_t group_word(const BitVector& v, std::uint64_t group) {
  std::uint64_t g = 0;
  for (const std::uint32_t w : kern::BitVectorOps::words(v)) {
    if (w & kFillFlag) {
      const std::uint64_t run = w & kCountMask;
      if (group < g + run) return (w & kFillValueBit) ? kLiteralMask : 0u;
      g += run;
    } else {
      if (group == g) return w;
      ++g;
    }
  }
  return group == g ? kern::BitVectorOps::active(v) : 0u;
}

}  // namespace

template <typename Op>
BitVector combine(const BitVector& a, const BitVector& b, Op op) {
  BitVector out;
  const std::uint64_t nbits = std::max(a.nbits_, b.nbits_);
  const std::uint64_t full_groups = nbits / BitVector::kGroupBits;
  BitRunDecoder da(a), db(b);
  std::uint64_t done = 0;
  while (done < full_groups) {
    const std::uint64_t n =
        std::min({da.groups(), db.groups(), full_groups - done});
    if (da.is_fill() && db.is_fill()) {
      out.append_fill(op(da.fill_value() ? kLiteralMask : 0u,
                         db.fill_value() ? kLiteralMask : 0u) != 0,
                      n);
      da.consume(n);
      db.consume(n);
      done += n;
    } else {
      const std::uint32_t wa =
          da.is_fill() ? (da.fill_value() ? kLiteralMask : 0u) : da.literal();
      const std::uint32_t wb =
          db.is_fill() ? (db.fill_value() ? kLiteralMask : 0u) : db.literal();
      out.append_group(op(wa, wb) & kLiteralMask);
      da.consume(1);
      db.consume(1);
      ++done;
    }
  }
  out.nbits_ = full_groups * BitVector::kGroupBits;
  // Partial tail group: at most one operand still has literal tail bits.
  const std::uint32_t tail = static_cast<std::uint32_t>(nbits - out.nbits_);
  if (tail > 0) {
    const auto tail_word = [full_groups](const BitVector& v) -> std::uint32_t {
      if (v.nbits_ / BitVector::kGroupBits == full_groups && v.active_bits_ > 0)
        return v.active_;
      // The operand's tail region is covered by compressed words (or it is
      // shorter than nbits): extract the whole group in one pass.
      return group_word(v, full_groups);
    };
    out.active_ = op(tail_word(a), tail_word(b)) & ((1u << tail) - 1u);
    out.active_bits_ = tail;
    out.nbits_ = nbits;
  }
  return out;
}

BitVector operator&(const BitVector& a, const BitVector& b) {
  return combine(a, b, [](std::uint32_t x, std::uint32_t y) { return x & y; });
}

BitVector operator|(const BitVector& a, const BitVector& b) {
  return combine(a, b, [](std::uint32_t x, std::uint32_t y) { return x | y; });
}

BitVector operator^(const BitVector& a, const BitVector& b) {
  return combine(a, b, [](std::uint32_t x, std::uint32_t y) { return x ^ y; });
}

BitVector BitVector::operator~() const {
  BitVector out;
  for (const std::uint32_t w : words_) {
    if (w & kFillFlag) {
      out.append_fill((w & kFillValueBit) == 0, w & kCountMask);
    } else {
      out.append_group(~w & kLiteralMask);
    }
  }
  out.nbits_ = (nbits_ / kGroupBits) * kGroupBits;
  if (active_bits_ > 0) {
    out.active_ = ~active_ & ((1u << active_bits_) - 1u);
    out.active_bits_ = active_bits_;
    out.nbits_ = nbits_;
  }
  return out;
}

BitVector or_many(std::vector<const BitVector*> operands, std::uint64_t nbits) {
  return kern::or_many_kway(operands, nbits);
}

void BitVector::save(std::ostream& out) const {
  const std::uint64_t nwords = words_.size();
  out.write(reinterpret_cast<const char*>(&nbits_), sizeof(nbits_));
  out.write(reinterpret_cast<const char*>(&nwords), sizeof(nwords));
  out.write(reinterpret_cast<const char*>(&active_), sizeof(active_));
  out.write(reinterpret_cast<const char*>(&active_bits_), sizeof(active_bits_));
  out.write(reinterpret_cast<const char*>(words_.data()),
            static_cast<std::streamsize>(nwords * sizeof(std::uint32_t)));
}

namespace {

/// Header sanity shared by both load() paths, checked BEFORE any allocation
/// so a corrupt/truncated .bmi or cache file throws instead of attempting a
/// huge resize. The invariants are exactly what append_run maintains: the
/// tail group holds nbits % 31 bits with nothing above them, and every
/// compressed word covers at least one 31-bit group.
void validate_header(std::uint64_t nbits, std::uint64_t nwords,
                     std::uint32_t active, std::uint32_t active_bits) {
  if (active_bits >= BitVector::kGroupBits ||
      active_bits != nbits % BitVector::kGroupBits)
    throw std::runtime_error("BitVector::load: corrupt header (tail width)");
  if (active_bits == 0 ? active != 0 : (active >> active_bits) != 0)
    throw std::runtime_error("BitVector::load: corrupt header (tail bits)");
  if (nwords > nbits / BitVector::kGroupBits)
    throw std::runtime_error("BitVector::load: corrupt header (word count)");
}

}  // namespace

BitVector BitVector::load(std::istream& in) {
  BitVector v;
  std::uint64_t nwords = 0;
  in.read(reinterpret_cast<char*>(&v.nbits_), sizeof(v.nbits_));
  in.read(reinterpret_cast<char*>(&nwords), sizeof(nwords));
  in.read(reinterpret_cast<char*>(&v.active_), sizeof(v.active_));
  in.read(reinterpret_cast<char*>(&v.active_bits_), sizeof(v.active_bits_));
  if (!in) throw std::runtime_error("BitVector::load: truncated stream");
  validate_header(v.nbits_, nwords, v.active_, v.active_bits_);
  // Read the payload in bounded chunks: a forged header whose nbits/nwords
  // are mutually consistent but enormous must fail at the first short read,
  // never commit gigabytes up front (memory grows only as data arrives).
  constexpr std::uint64_t kChunkWords = 1u << 20;  // 4 MiB per chunk
  std::uint64_t read_words = 0;
  while (read_words < nwords) {
    const std::uint64_t n = std::min(kChunkWords, nwords - read_words);
    if (v.words_.capacity() < read_words + n)
      v.words_.reserve(std::max<std::uint64_t>(2 * v.words_.capacity(),
                                               read_words + n));
    v.words_.resize(static_cast<std::size_t>(read_words + n));
    in.read(reinterpret_cast<char*>(v.words_.data() + read_words),
            static_cast<std::streamsize>(n * sizeof(std::uint32_t)));
    if (!in) throw std::runtime_error("BitVector::load: truncated stream");
    read_words += n;
  }
  // The decoded groups must cover exactly the declared full-group count.
  std::uint64_t groups = 0;
  for (const std::uint32_t w : v.words_)
    groups += (w & kFillFlag) ? (w & kCountMask) : 1;
  if (groups != v.nbits_ / kGroupBits)
    throw std::runtime_error("BitVector::load: word/bit count mismatch");
  return v;
}

std::size_t BitVector::serialized_size(std::span<const std::byte> image,
                                       std::size_t offset) {
  const auto nwords = detail::read_unaligned<std::uint64_t>(image, offset + 8);
  // Bound the count before multiplying, so a forged word count can neither
  // wrap the size around nor point past the image.
  if (image.size() - offset < kRecordHeaderBytes ||
      nwords > (image.size() - offset - kRecordHeaderBytes) /
                   sizeof(std::uint32_t))
    throw std::runtime_error("BitVector: truncated serialized image");
  return kRecordHeaderBytes +
         static_cast<std::size_t>(nwords) * sizeof(std::uint32_t);
}

BitVector BitVector::load(std::span<const std::byte> image, std::size_t& offset) {
  BitVector v;
  v.nbits_ = detail::read_unaligned<std::uint64_t>(image, offset);
  const auto nwords = detail::read_unaligned<std::uint64_t>(image, offset + 8);
  v.active_ = detail::read_unaligned<std::uint32_t>(image, offset + 16);
  v.active_bits_ = detail::read_unaligned<std::uint32_t>(image, offset + 20);
  validate_header(v.nbits_, nwords, v.active_, v.active_bits_);
  const std::size_t payload =
      static_cast<std::size_t>(nwords) * sizeof(std::uint32_t);
  if (offset + kRecordHeaderBytes + payload > image.size())
    throw std::runtime_error("BitVector: truncated serialized image");
  v.words_.resize(static_cast<std::size_t>(nwords));
  if (payload > 0)  // an empty vector's data() may be null: memcpy's UB
    std::memcpy(v.words_.data(), image.data() + offset + kRecordHeaderBytes,
                payload);
  offset += kRecordHeaderBytes + payload;
  // Same group-coverage consistency check as the stream loader: a mapped
  // .bmi with bit-rotted fill counts must throw, not silently decode to a
  // vector whose words disagree with its declared size.
  std::uint64_t groups = 0;
  for (const std::uint32_t w : v.words_)
    groups += (w & kFillFlag) ? (w & kCountMask) : 1;
  if (groups != v.nbits_ / kGroupBits)
    throw std::runtime_error("BitVector: corrupt serialized image (group count)");
  return v;
}

}  // namespace qdv
