#include "bitmap/bitvector.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <span>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "bitmap/kernels.hpp"

namespace qdv {

namespace {
constexpr std::uint32_t kFillFlag = 0x80000000u;
constexpr std::uint32_t kFillValueBit = 0x40000000u;
constexpr std::uint32_t kCountMask = 0x3FFFFFFFu;
constexpr std::uint32_t kLiteralMask = 0x7FFFFFFFu;
}  // namespace

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

namespace {

/// One operand of a binary operation as runs: a fill of whole groups, or
/// the literal words up to the next fill. After its compressed words come
/// its zero-padded tail group, as a one-word literal run, then zeros
/// forever (operands of different lengths are zero-extended).
class RunCursor {
 public:
  explicit RunCursor(const BitVector& v)
      : words_(kern::BitVectorOps::words(v)),
        tail_(kern::BitVectorOps::active(v)),
        tail_pending_(kern::BitVectorOps::active_bits(v) > 0) {
    next();
  }
  RunCursor(const RunCursor&) = delete;  // literals() may point at tail_
  RunCursor& operator=(const RunCursor&) = delete;

  /// Groups left in the current run.
  std::uint64_t groups() const { return groups_; }
  /// The current run's literal words, groups() of them; nullptr in a fill.
  const std::uint32_t* literals() const { return literals_; }
  /// The current fill's group: all ones or all zeros.
  std::uint32_t fill_word() const { return fill_word_; }

  /// Step past @p n <= groups() groups of the current run.
  void take(std::uint64_t n) {
    groups_ -= n;
    if (literals_ != nullptr) literals_ += n;
    if (groups_ == 0) next();
  }

 private:
  void next() {
    literals_ = nullptr;
    while (idx_ < words_.size()) {
      const std::uint32_t w = words_[idx_];
      if (!(w & kFillFlag)) {
        const std::size_t begin = idx_;
        while (idx_ < words_.size() && !(words_[idx_] & kFillFlag)) ++idx_;
        literals_ = words_.data() + begin;
        groups_ = idx_ - begin;
        return;
      }
      ++idx_;
      groups_ = w & kCountMask;
      fill_word_ = (w & kFillValueBit) ? kLiteralMask : 0u;
      if (groups_ > 0) return;  // an empty fill word covers nothing
    }
    if (tail_pending_) {
      tail_pending_ = false;
      literals_ = &tail_;
      groups_ = 1;
      return;
    }
    groups_ = ~std::uint64_t{0};
    fill_word_ = 0u;
  }

  std::span<const std::uint32_t> words_;
  std::size_t idx_ = 0;
  std::uint32_t tail_;
  bool tail_pending_;
  const std::uint32_t* literals_ = nullptr;
  std::uint64_t groups_ = 0;
  std::uint32_t fill_word_ = 0;
};

}  // namespace

template <typename Op>
BitVector combine(const BitVector& a, const BitVector& b, Op op) {
  const std::uint64_t nbits = std::max(a.nbits_, b.nbits_);
  const std::uint64_t full_groups = nbits / BitVector::kGroupBits;
  BitVector out;
  // Reserved once: every output word comes from a word of either operand
  // (or a tail group), and no vector has more words than groups.
  out.words_.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      a.words_.size() + b.words_.size() + 2, full_groups)));
  RunCursor ca(a), cb(b);  // both always at group `done`
  for (std::uint64_t done = 0; done < full_groups;) {
    const std::uint64_t n =
        std::min({ca.groups(), cb.groups(), full_groups - done});
    const std::uint32_t* la = ca.literals();
    const std::uint32_t* lb = cb.literals();
    if (la == nullptr && lb == nullptr) {
      out.append_fill(op(ca.fill_word(), cb.fill_word()) != 0, n);
    } else if (la == nullptr || lb == nullptr) {
      // A fill against literals: the operator makes them a constant (one
      // fill, the literals skipped), or passes or inverts them word by word.
      const std::uint32_t fill = la == nullptr ? ca.fill_word() : cb.fill_word();
      const std::uint32_t* lits = la == nullptr ? lb : la;
      const auto apply = [&](std::uint32_t w) {
        return (la == nullptr ? op(fill, w) : op(w, fill)) & kLiteralMask;
      };
      const std::uint32_t on_zeros = apply(0u);
      if (on_zeros == apply(kLiteralMask)) {
        out.append_fill(on_zeros != 0, n);
      } else {
        for (std::uint64_t k = 0; k < n; ++k) out.append_group(apply(lits[k]));
      }
    } else {
      // Two literal runs: one pass over both word arrays.
      for (std::uint64_t k = 0; k < n; ++k) out.append_group(op(la[k], lb[k]));
    }
    ca.take(n);
    cb.take(n);
    done += n;
  }
  if (out.words_.capacity() > 2 * out.words_.size()) out.words_.shrink_to_fit();
  out.nbits_ = full_groups * BitVector::kGroupBits;
  // Partial tail group: both cursors now sit on group full_groups.
  const auto tail = static_cast<std::uint32_t>(nbits - out.nbits_);
  if (tail > 0) {
    const auto group = [](const RunCursor& c) {
      return c.literals() != nullptr ? c.literals()[0] : c.fill_word();
    };
    out.active_ = op(group(ca), group(cb)) & ((1u << tail) - 1u);
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
/// compressed word covers at least one 31-bit group. Returns the broken
/// invariant, or nullptr.
const char* header_fault(std::uint64_t nbits, std::uint64_t nwords,
                         std::uint32_t active, std::uint32_t active_bits) {
  if (active_bits >= BitVector::kGroupBits ||
      active_bits != nbits % BitVector::kGroupBits)
    return "tail width";
  if (active_bits == 0 ? active != 0 : (active >> active_bits) != 0)
    return "tail bits";
  if (nwords > nbits / BitVector::kGroupBits) return "word count";
  return nullptr;
}

[[noreturn]] void throw_corrupt(const char* fault) {
  throw std::runtime_error(std::string("BitVector::load: corrupt record (") +
                           fault + ")");
}

}  // namespace

const char* BitVector::record_fault(std::uint64_t nbits,
                                    std::span<const std::uint32_t> words,
                                    std::uint32_t active,
                                    std::uint32_t active_bits) {
  if (const char* fault = header_fault(nbits, words.size(), active, active_bits))
    return fault;
  // The words must cover exactly the declared full-group count: bit-rotted
  // fill counts can keep the header plausible.
  std::uint64_t groups = 0;
  for (const std::uint32_t w : words)
    groups += (w & kFillFlag) ? (w & kCountMask) : 1;
  return groups != nbits / kGroupBits ? "group count" : nullptr;
}

BitVector BitVector::load(std::istream& in) {
  BitVector v;
  std::uint64_t nwords = 0;
  in.read(reinterpret_cast<char*>(&v.nbits_), sizeof(v.nbits_));
  in.read(reinterpret_cast<char*>(&nwords), sizeof(nwords));
  in.read(reinterpret_cast<char*>(&v.active_), sizeof(v.active_));
  in.read(reinterpret_cast<char*>(&v.active_bits_), sizeof(v.active_bits_));
  if (!in) throw std::runtime_error("BitVector::load: truncated stream");
  if (const char* fault = header_fault(v.nbits_, nwords, v.active_, v.active_bits_))
    throw_corrupt(fault);
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
  if (const char* fault = record_fault(v.nbits_, v.words_, v.active_, v.active_bits_))
    throw_corrupt(fault);
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
  v.active_ = detail::read_unaligned<std::uint32_t>(image, offset + 16);
  v.active_bits_ = detail::read_unaligned<std::uint32_t>(image, offset + 20);
  // serialized_size bounds the word count by the image, so the copy below
  // allocates no more than the image holds.
  const std::size_t size = serialized_size(image, offset);
  v.words_.resize((size - kRecordHeaderBytes) / sizeof(std::uint32_t));
  if (!v.words_.empty())  // an empty vector's data() may be null: memcpy's UB
    std::memcpy(v.words_.data(), image.data() + offset + kRecordHeaderBytes,
                size - kRecordHeaderBytes);
  // A mapped .bmi with bit-rotted fill counts must throw, not silently
  // decode to a vector whose words disagree with its declared size.
  if (const char* fault = record_fault(v.nbits_, v.words_, v.active_, v.active_bits_))
    throw_corrupt(fault);
  offset += size;
  return v;
}

}  // namespace qdv
