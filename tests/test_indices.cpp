// Index encodings against a brute-force reference: equality, range, and
// interval encodings must produce identical exact answers for every query
// shape, including values outside the binned range; the id index must match
// a sequential scan. The on-disk decoders must reject forged entry counts
// before allocating for them.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitmap/bitmap_index.hpp"
#include "bitmap/index_segments.hpp"
#include "bitmap/interval_index.hpp"
#include "bitmap/range_index.hpp"
#include "test_common.hpp"

namespace {

using namespace qdv;

std::vector<double> make_values(std::size_t n, std::uint64_t seed) {
  std::vector<double> values(n);
  std::uint64_t state = seed;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (double& v : values)
    v = static_cast<double>(next() >> 11) * 0x1.0p-53 * 120.0 - 10.0;
  return values;
}

std::vector<std::uint32_t> brute_force(std::span<const double> values,
                                       const Interval& iv) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t r = 0; r < values.size(); ++r)
    if (iv.contains(values[r])) out.push_back(r);
  return out;
}

template <typename Index>
void check_index(const Index& index, std::span<const double> values,
                 const Interval& iv, const char* label) {
  const BitVector answer = index.evaluate(iv, values);
  const std::vector<std::uint32_t> expect = brute_force(values, iv);
  if (answer.to_positions() != expect) {
    std::fprintf(stderr, "%s mismatch: lo=%g hi=%g got %zu expect %zu\n", label,
                 iv.lo, iv.hi, answer.to_positions().size(), expect.size());
    ++qdv::test::failures;
  }
  // The approximate answer must bracket the exact one.
  const auto approx = index.evaluate_approx(iv);
  CHECK((approx.hits & ~answer).count() == 0);  // no false certain hits
  CHECK((answer & ~(approx.hits | approx.candidates)).count() == 0);
}

void test_value_indices() {
  const std::vector<double> values = make_values(5000, 99);
  // Bins deliberately narrower than the data range: rows fall outside.
  for (const std::size_t nbins : {1u, 2u, 3u, 7u, 64u}) {
    const Bins bins = make_uniform_bins(0.0, 100.0, nbins);
    const BitmapIndex eq = BitmapIndex::build(values, bins);
    const RangeEncodedIndex range = RangeEncodedIndex::build(values, bins);
    const IntervalEncodedIndex interval = IntervalEncodedIndex::build(values, bins);
    const std::vector<Interval> queries = {
        Interval::greater_than(50.0),  Interval::greater_than(-100.0),
        Interval::greater_than(99.99), Interval::less_than(0.5),
        Interval::at_least(25.0),      Interval::at_most(75.0),
        Interval::between(10.0, 20.0), Interval::between(-5.0, 110.0),
        Interval::between(33.3, 33.4), Interval::greater_than(200.0),
        Interval::between(50.0, 50.0),
    };
    for (const Interval& iv : queries) {
      check_index(eq, values, iv, "equality");
      check_index(range, values, iv, "range");
      check_index(interval, values, iv, "interval");
    }
  }
}

void test_precision_binning_index_only() {
  // An inclusive threshold on a bin edge of a precision-binned index: the
  // candidate set must be empty (index-only answer). The strict form keeps
  // one candidate bin: values exactly equal to the edge must be excluded.
  const std::vector<double> values = make_values(2000, 7);
  const BitmapIndex index =
      BitmapIndex::build(values, make_precision_bins(-10.0, 110.0, 2, 1u << 14));
  const auto inclusive = index.evaluate_approx(Interval::at_least(70.0));
  CHECK_EQ(inclusive.candidates.count(), 0u);
  const auto strict = index.evaluate_approx(Interval::greater_than(70.0));
  CHECK(strict.candidates.count() <= values.size() / 10);  // one bin of twelve
  check_index(index, values, Interval::at_least(70.0), "precision");
  check_index(index, values, Interval::greater_than(70.0), "precision-strict");
}

void test_id_index() {
  std::vector<std::uint64_t> ids;
  std::uint64_t state = 5;
  for (std::size_t i = 0; i < 4000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    ids.push_back(state >> 20);
  }
  const IdIndex index = IdIndex::build(ids);
  std::vector<std::uint64_t> search = {ids[0], ids[100], ids[3999], 42, ids[100]};
  const std::vector<std::uint32_t> rows = index.lookup_rows(search);
  // Reference: sequential scan.
  std::vector<std::uint64_t> sorted(search);
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint32_t> expect;
  for (std::uint32_t r = 0; r < ids.size(); ++r)
    if (std::binary_search(sorted.begin(), sorted.end(), ids[r]))
      expect.push_back(r);
  CHECK(rows == expect);
  CHECK_EQ(index.lookup_row(42), -1);
  CHECK_EQ(index.lookup_row(ids[100]), 100);

  std::stringstream stream;
  index.save(stream);
  const std::string image = stream.str();
  const IdIndex loaded =
      IdIndex::load(std::as_bytes(std::span(image.data(), image.size())));
  CHECK(loaded.lookup_rows(search) == expect);
}

/// Serialized image of @p save with the u64 at @p offset replaced by
/// @p count — a forged on-disk entry count.
template <typename Save>
std::string forged_image(Save save, std::size_t offset, std::uint64_t count) {
  std::stringstream stream;
  save(stream);
  std::string image = stream.str();
  std::memcpy(image.data() + offset, &count, sizeof(count));
  return image;
}

/// True when decoding @p image throws std::runtime_error (a typed decode
/// failure, not std::bad_alloc).
template <typename Decode>
bool rejects(const std::string& image, Decode decode) {
  try {
    decode(std::as_bytes(std::span(image.data(), image.size())));
  } catch (const std::runtime_error&) {
    return true;
  } catch (...) {
  }
  return false;
}

void test_forged_counts_are_bounded() {
  const std::vector<double> values = make_values(3000, 21);
  const BitmapIndex index =
      BitmapIndex::build(values, make_uniform_bins(0.0, 100.0, 32));
  std::vector<std::uint64_t> ids(1000);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = 7 * i + 3;
  const IdIndex id_index = IdIndex::build(ids);

  const auto open_bmi = [](std::span<const std::byte> bytes) {
    (void)SegmentedBitmapIndex::open(bytes, nullptr);
  };
  const auto load_idi = [](std::span<const std::byte> bytes) {
    (void)IdIndex::load(bytes);
  };
  const auto save_bmi = [&](std::ostream& out) { index.save(out); };
  const auto save_idi = [&](std::ostream& out) { id_index.save(out); };

  // A count no allocator can satisfy: typed error, not std::bad_alloc.
  // .bmi layout: nrows | nedges | edges | nbitmaps ...; .idi: n | ...
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  CHECK(rejects(forged_image(save_bmi, 8, kHuge), open_bmi));
  CHECK(rejects(forged_image(save_idi, 0, kHuge), load_idi));
  const std::size_t nbitmaps_at = 16 + index.bins().edges().size() * 8;
  CHECK(rejects(forged_image(save_bmi, nbitmaps_at, kHuge), open_bmi));
  // A record word count whose byte size wraps around (4 * 2^62 == 2^64).
  CHECK(rejects(forged_image(save_bmi, nbitmaps_at + 16, kHuge << 22),
                open_bmi));

  // A count that would fit in memory but not in the image: rejected before
  // anything is committed (1-1.5 GiB if the decoder allocated first).
  constexpr std::uint64_t kLarge = std::uint64_t{1} << 27;
  const std::uint64_t rss_before = test::peak_rss_kib();
  CHECK(rejects(forged_image(save_bmi, 8, kLarge), open_bmi));
  CHECK(rejects(forged_image(save_idi, 0, kLarge), load_idi));
  CHECK(test::peak_rss_kib() - rss_before <= 64u << 10);
}

}  // namespace

int main() {
  test_value_indices();
  test_precision_binning_index_only();
  test_forged_counts_are_bounded();
  test_id_index();
  return qdv::test::finish("test_indices");
}
