// WAH bitvector edge cases: tails off the 31-bit boundary, literal<->fill
// transitions, empty/all-set vectors and mixed-length operands — each
// cross-checked against a plain std::vector<bool> reference model.
#include <cstdint>
#include <cstring>
#include <sstream>
#include <vector>

#include "bitmap/bitvector.hpp"
#include "kernel_refs.hpp"
#include "test_common.hpp"

namespace {

using qdv::BitVector;

struct Model {
  BitVector v;
  std::vector<bool> ref;

  void append_run(bool value, std::uint64_t count) {
    v.append_run(value, count);
    ref.insert(ref.end(), count, value);
  }
};

std::uint64_t ref_count(const std::vector<bool>& ref) {
  std::uint64_t n = 0;
  for (const bool b : ref) n += b;
  return n;
}

void check_matches(const BitVector& v, const std::vector<bool>& ref) {
  CHECK_EQ(v.size(), ref.size());
  CHECK_EQ(v.count(), ref_count(ref));
  const std::vector<std::uint32_t> positions = v.to_positions();
  std::size_t pi = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!ref[i]) continue;
    CHECK(pi < positions.size() && positions[pi] == i);
    ++pi;
  }
  CHECK_EQ(pi, positions.size());
}

std::vector<bool> ref_op(const std::vector<bool>& a, const std::vector<bool>& b,
                         char op) {
  std::vector<bool> out(std::max(a.size(), b.size()));
  for (std::size_t i = 0; i < out.size(); ++i) {
    const bool x = i < a.size() && a[i];
    const bool y = i < b.size() && b[i];
    out[i] = op == '&' ? (x && y) : op == '|' ? (x || y) : (x != y);
  }
  return out;
}

/// Deterministic run generator.
Model make_model(std::uint64_t nbits, std::uint64_t seed, std::uint64_t max_run) {
  Model m;
  std::uint64_t state = seed;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  bool value = next() & 1;
  std::uint64_t pos = 0;
  while (pos < nbits) {
    const std::uint64_t run = std::min(nbits - pos, 1 + next() % max_run);
    m.append_run(value, run);
    value = !value;
    pos += run;
  }
  return m;
}

void test_tail_not_on_group_boundary() {
  for (const std::uint64_t nbits : {1u, 5u, 30u, 31u, 32u, 61u, 62u, 63u, 95u}) {
    Model m;
    for (std::uint64_t i = 0; i < nbits; ++i) m.append_run(i % 3 == 0, 1);
    check_matches(m.v, m.ref);
    CHECK(m.v.test(0));
    if (nbits > 1) CHECK(!m.v.test(1));
  }
}

void test_literal_fill_transitions() {
  Model m;
  m.append_run(false, 100000);  // long 0-fill
  m.append_run(true, 7);        // literal
  m.append_run(true, 310000);   // long 1-fill extending past the literal
  m.append_run(false, 3);
  m.append_run(true, 62);       // exactly two full groups
  m.append_run(false, 1);
  check_matches(m.v, m.ref);
  // Compression actually engaged: far fewer words than groups.
  CHECK(m.v.word_count() < 40);
}

void test_empty_and_all_set() {
  const BitVector empty;
  CHECK_EQ(empty.count(), 0u);
  CHECK_EQ(empty.size(), 0u);
  CHECK(empty.to_positions().empty());

  const BitVector zeros = BitVector::zeros(1000);
  CHECK_EQ(zeros.count(), 0u);
  CHECK_EQ(zeros.size(), 1000u);

  const BitVector ones = BitVector::ones(1000);
  CHECK_EQ(ones.count(), 1000u);
  CHECK_EQ((~ones).count(), 0u);
  CHECK_EQ((~zeros).count(), 1000u);
  CHECK_EQ((zeros | ones).count(), 1000u);
  CHECK_EQ((zeros & ones).count(), 0u);
}

void test_logical_ops_against_model() {
  for (const std::uint64_t bits_a : {310u, 311u, 4096u}) {
    for (const std::uint64_t bits_b : {310u, 333u, 5000u}) {
      const Model a = make_model(bits_a, 1234 + bits_a, 50);
      const Model b = make_model(bits_b, 777 + bits_b, 13);
      check_matches(a.v & b.v, ref_op(a.ref, b.ref, '&'));
      check_matches(a.v | b.v, ref_op(a.ref, b.ref, '|'));
      check_matches(a.v ^ b.v, ref_op(a.ref, b.ref, '^'));
    }
  }
  // NOT flips every bit up to size().
  const Model m = make_model(1000, 99, 200);
  const BitVector inv = ~m.v;
  CHECK_EQ(inv.size(), m.v.size());
  CHECK_EQ(inv.count(), m.v.size() - m.v.count());
  CHECK_EQ((~inv), m.v);
}

/// The binary operators against the bit-by-bit reference, compared with
/// operator== so the canonical word form is checked too: long zero and
/// one fills against literal runs on either side, fills meeting fills,
/// operands of different lengths (zero extension) and ragged tails.
void test_combine_runs_against_bits() {
  std::vector<BitVector> shapes;
  shapes.emplace_back();
  for (const std::uint64_t n : {1u, 30u, 31u, 62u, 9300u}) {
    shapes.push_back(BitVector::zeros(n));
    shapes.push_back(BitVector::ones(n));
  }
  shapes.push_back(make_model(9300, 5, 3).v);    // literal run
  shapes.push_back(make_model(9317, 6, 400).v);  // fills between literals
  shapes.push_back(make_model(4000, 7, 2000).v);
  {
    // Fill, literals, one-fill, literals, ragged tail: x's range result
    // beside y's.
    Model m;
    m.append_run(false, 3100);
    for (int i = 0; i < 3100; ++i) m.append_run(i % 3 == 0, 1);
    m.append_run(true, 3100);
    for (int i = 0; i < 117; ++i) m.append_run(i % 5 != 0, 1);
    shapes.push_back(m.v);
  }
  const auto ref = [](const BitVector& a, const BitVector& b, char op) {
    return qdv::kern::ref::combine_bits(a, b, [op](bool x, bool y) {
      return op == '&' ? (x && y) : op == '|' ? (x || y) : (x != y);
    });
  };
  for (const BitVector& a : shapes) {
    for (const BitVector& b : shapes) {
      CHECK((a & b) == ref(a, b, '&'));
      CHECK((a | b) == ref(a, b, '|'));
      CHECK((a ^ b) == ref(a, b, '^'));
    }
  }
}

void test_from_positions_roundtrip() {
  const Model m = make_model(2000, 4242, 97);
  const BitVector rebuilt = BitVector::from_positions(m.v.to_positions(), 2000);
  CHECK(rebuilt == m.v);
}

void test_load_validates_header() {
  const Model m = make_model(5000, 2024, 77);
  std::ostringstream saved;
  m.v.save(saved);
  const std::string good = saved.str();

  // Round trip still works.
  {
    std::istringstream in(good);
    CHECK(BitVector::load(in) == m.v);
  }
  // Serialized layout: nbits u64 | nwords u64 | active u32 | active_bits u32.
  const auto corrupt_at = [&](std::size_t offset, std::uint64_t value,
                              std::size_t width) {
    std::string bad = good;
    std::memcpy(bad.data() + offset, &value, width);
    std::istringstream in(bad);
    CHECK_THROWS(BitVector::load(in));
  };
  // A huge word count must throw before any allocation is attempted.
  corrupt_at(8, 0x7FFFFFFFFFFFFFFFull, 8);
  // Word count inconsistent with the bit count.
  corrupt_at(8, 5000 / 31 + 1, 8);
  // Tail width >= the group size, or inconsistent with nbits.
  corrupt_at(20, 31, 4);
  corrupt_at(20, 200, 4);
  // Garbage bits above the declared tail width.
  corrupt_at(16, 0xFFFFFFFFull, 4);
  // Truncated payload.
  {
    std::istringstream in(good.substr(0, good.size() - 3));
    CHECK_THROWS(BitVector::load(in));
  }
  // Truncated header.
  {
    std::istringstream in(good.substr(0, 10));
    CHECK_THROWS(BitVector::load(in));
  }
  // The span-based loader applies the same header validation.
  {
    std::string bad = good;
    const std::uint64_t nwords = 0x10000000000ull;
    std::memcpy(bad.data() + 8, &nwords, 8);
    std::size_t offset = 0;
    const std::span<const std::byte> image(
        reinterpret_cast<const std::byte*>(bad.data()), bad.size());
    CHECK_THROWS(BitVector::load(image, offset));
  }
  // ... and the group-coverage check: a bit-rotted fill count that keeps
  // the header plausible must still throw on either path.
  {
    std::string bad = good;
    const std::uint32_t fat_fill = 0x80000000u | 0x12345u;  // zero fill, huge
    std::memcpy(bad.data() + 24, &fat_fill, 4);  // first payload word
    std::size_t offset = 0;
    const std::span<const std::byte> image(
        reinterpret_cast<const std::byte*>(bad.data()), bad.size());
    CHECK_THROWS(BitVector::load(image, offset));
    std::istringstream in(bad);
    CHECK_THROWS(BitVector::load(in));
  }
}

void test_for_each_set_order() {
  const Model m = make_model(5000, 31337, 61);
  std::vector<std::uint32_t> seen;
  m.v.for_each_set([&](std::uint64_t pos) {
    seen.push_back(static_cast<std::uint32_t>(pos));
  });
  CHECK(seen == m.v.to_positions());
}

}  // namespace

int main() {
  test_tail_not_on_group_boundary();
  test_literal_fill_transitions();
  test_empty_and_all_set();
  test_logical_ops_against_model();
  test_combine_runs_against_bits();
  test_from_positions_roundtrip();
  test_load_validates_header();
  test_for_each_set_order();
  return qdv::test::finish("test_bitvector");
}
