// Sliding-window delta encoding tests (§2.2, Figs. 3-4).

#include <gtest/gtest.h>

#include <span>

#include "common/random.h"
#include "encoding/cascade.h"
#include "format/sparse_delta.h"

namespace bullion {
namespace {

// Builds a clk_seq_cids-style column: per user, a window of `window`
// ids shifting over time (new id prepended with prob `shift_prob`).
void MakeSlidingWindowData(size_t users, size_t events_per_user,
                           size_t window, double shift_prob, uint64_t seed,
                           std::vector<int64_t>* offsets,
                           std::vector<int64_t>* values) {
  Random rng(seed);
  offsets->clear();
  values->clear();
  offsets->push_back(0);
  for (size_t u = 0; u < users; ++u) {
    std::vector<int64_t> win;
    for (size_t i = 0; i < window; ++i) {
      win.push_back(rng.UniformRange(0, 1000000));
    }
    for (size_t e = 0; e < events_per_user; ++e) {
      if (e > 0 && rng.Bernoulli(shift_prob)) {
        win.insert(win.begin(), rng.UniformRange(0, 1000000));
        win.pop_back();
      }
      values->insert(values->end(), win.begin(), win.end());
      offsets->push_back(static_cast<int64_t>(values->size()));
    }
  }
}

// The quadratic reference scan: every alignment diagonal in shift
// order, every run in start order, first longest run kept. Defines the
// tie-break FindBestWindow must reproduce: longest run, then smallest
// shift, then earliest start.
WindowMatch OracleFindBestWindow(std::span<const int64_t> prev,
                                 std::span<const int64_t> cur,
                                 size_t min_overlap) {
  WindowMatch best{false, 0, 0, 0, cur.size()};
  if (prev.empty() || cur.empty()) return best;
  size_t best_len = 0;
  for (int64_t shift = -(static_cast<int64_t>(prev.size()) - 1);
       shift < static_cast<int64_t>(cur.size()); ++shift) {
    size_t p_begin = shift < 0 ? static_cast<size_t>(-shift) : 0;
    size_t c_begin = shift > 0 ? static_cast<size_t>(shift) : 0;
    size_t len = std::min(prev.size() - p_begin, cur.size() - c_begin);
    size_t run = 0;
    for (size_t k = 0; k < len; ++k) {
      run = cur[c_begin + k] == prev[p_begin + k] ? run + 1 : 0;
      if (run > best_len) {
        best_len = run;
        size_t start = k + 1 - run;
        best.range_start = p_begin + start;
        best.range_end = p_begin + start + run;
        best.head_len = c_begin + start;
        best.tail_len = cur.size() - (c_begin + start + run);
      }
    }
  }
  best.is_delta = best_len >= min_overlap;
  if (!best.is_delta) best = WindowMatch{false, 0, 0, 0, cur.size()};
  return best;
}

void ExpectSameAsOracle(const std::vector<int64_t>& prev,
                        const std::vector<int64_t>& cur, size_t min_overlap) {
  WindowMatch got = FindBestWindow(prev, cur, min_overlap);
  WindowMatch want = OracleFindBestWindow(prev, cur, min_overlap);
  EXPECT_EQ(got.is_delta, want.is_delta);
  EXPECT_EQ(got.range_start, want.range_start);
  EXPECT_EQ(got.range_end, want.range_end);
  EXPECT_EQ(got.head_len, want.head_len);
  EXPECT_EQ(got.tail_len, want.tail_len);
}

TEST(FindBestWindow, MatchesQuadraticOracleOnRandomInputs) {
  Random rng(41);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<int64_t> prev(rng.Uniform(40));
    std::vector<int64_t> cur(rng.Uniform(40));
    // Small alphabets make many equal-length runs on many diagonals.
    const int64_t alphabet = 1 + static_cast<int64_t>(rng.Uniform(4));
    for (auto& v : prev) v = rng.UniformRange(0, alphabet);
    for (auto& v : cur) v = rng.UniformRange(0, alphabet);
    if (!prev.empty() && rng.Bernoulli(0.5)) {
      // Embed a shifted slice of prev, as a sliding window does.
      size_t s = rng.Uniform(prev.size());
      size_t e = s + rng.Uniform(prev.size() - s + 1);
      size_t at = rng.Uniform(cur.size() + 1);
      cur.insert(cur.begin() + static_cast<std::ptrdiff_t>(at),
                 prev.begin() + static_cast<std::ptrdiff_t>(s),
                 prev.begin() + static_cast<std::ptrdiff_t>(e));
    }
    ExpectSameAsOracle(prev, cur, rng.Uniform(6));
  }
}

TEST(FindBestWindow, MatchesQuadraticOracleOnAdversarialInputs) {
  for (size_t p = 0; p <= 12; ++p) {
    for (size_t c = 0; c <= 12; ++c) {
      for (size_t min_overlap : {0, 1, 3, 8}) {
        // All equal: every diagonal is one run as long as the diagonal.
        ExpectSameAsOracle(std::vector<int64_t>(p, 7),
                           std::vector<int64_t>(c, 7), min_overlap);
        // Periodic: equal-length runs on every period-th diagonal.
        for (int64_t period : {2, 3}) {
          std::vector<int64_t> prev(p), cur(c);
          for (size_t i = 0; i < p; ++i) prev[i] = static_cast<int64_t>(i) % period;
          for (size_t i = 0; i < c; ++i) cur[i] = static_cast<int64_t>(i + 1) % period;
          ExpectSameAsOracle(prev, cur, min_overlap);
        }
      }
    }
  }
  // Equal-length runs on several diagonals, on both sides of the
  // plateau, separated by values that never match.
  std::vector<int64_t> prev = {1, 2, 3, -1, 1, 2, 3, -2, 1, 2, 3};
  std::vector<int64_t> cur = {9, 1, 2, 3, 8, 8, 1, 2, 3};
  for (size_t min_overlap : {0, 2, 3, 4}) {
    ExpectSameAsOracle(prev, cur, min_overlap);
    ExpectSameAsOracle(cur, prev, min_overlap);
  }
}

TEST(FindBestWindow, ExactShiftPattern) {
  std::vector<int64_t> prev = {92, 82, 66, 18, 67, 13, 96, 63};
  std::vector<int64_t> cur = {76, 92, 82, 66, 18, 67, 13, 96};  // head insert
  WindowMatch m = FindBestWindow(prev, cur, 4);
  EXPECT_TRUE(m.is_delta);
  EXPECT_EQ(m.head_len, 1u);
  EXPECT_EQ(m.tail_len, 0u);
  EXPECT_EQ(m.range_start, 0u);
  EXPECT_EQ(m.range_end, 7u);
}

TEST(FindBestWindow, IdenticalVectors) {
  std::vector<int64_t> v = {1, 2, 3, 4, 5, 6, 7, 8};
  WindowMatch m = FindBestWindow(v, v, 4);
  EXPECT_TRUE(m.is_delta);
  EXPECT_EQ(m.head_len, 0u);
  EXPECT_EQ(m.tail_len, 0u);
  EXPECT_EQ(m.range_start, 0u);
  EXPECT_EQ(m.range_end, 8u);
}

TEST(FindBestWindow, NoOverlapFallsBackToBase) {
  std::vector<int64_t> prev = {1, 2, 3, 4};
  std::vector<int64_t> cur = {10, 20, 30, 40};
  WindowMatch m = FindBestWindow(prev, cur, 2);
  EXPECT_FALSE(m.is_delta);
  EXPECT_EQ(m.tail_len, 4u);
}

TEST(FindBestWindow, TailAppendPattern) {
  std::vector<int64_t> prev = {1, 2, 3, 4, 5, 6};
  std::vector<int64_t> cur = {3, 4, 5, 6, 77, 88};  // drop head, append tail
  WindowMatch m = FindBestWindow(prev, cur, 3);
  EXPECT_TRUE(m.is_delta);
  EXPECT_EQ(m.head_len, 0u);
  EXPECT_EQ(m.tail_len, 2u);
  EXPECT_EQ(m.range_start, 2u);
  EXPECT_EQ(m.range_end, 6u);
}

struct SweepCase {
  double shift_prob;
  size_t window;
};

class SparseDeltaSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SparseDeltaSweep, RoundTrip) {
  std::vector<int64_t> offsets, values;
  MakeSlidingWindowData(20, 30, GetParam().window, GetParam().shift_prob, 3,
                        &offsets, &values);
  auto block = EncodeSparseDeltaColumn(offsets, values);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  std::vector<int64_t> out_offsets, out_values;
  ASSERT_TRUE(
      DecodeSparseDeltaColumn(block->AsSlice(), &out_offsets, &out_values)
          .ok());
  EXPECT_EQ(out_offsets, offsets);
  EXPECT_EQ(out_values, values);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SparseDeltaSweep,
    ::testing::Values(SweepCase{0.0, 16}, SweepCase{0.1, 16},
                      SweepCase{0.25, 16}, SweepCase{0.5, 64},
                      SweepCase{1.0, 64}, SweepCase{0.25, 256},
                      SweepCase{0.1, 1}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "shift" +
             std::to_string(static_cast<int>(info.param.shift_prob * 100)) +
             "_w" + std::to_string(info.param.window);
    });

TEST(SparseDelta, BeatsGenericEncodingOnSlidingWindows) {
  std::vector<int64_t> offsets, values;
  // 50 users x 40 events, window 256, slow drift: heavy overlap.
  MakeSlidingWindowData(50, 40, 256, 0.3, 7, &offsets, &values);

  auto sparse = EncodeSparseDeltaColumn(offsets, values);
  ASSERT_TRUE(sparse.ok());

  // Generic alternative: cascade over the flattened values.
  auto generic = EncodeInt64Column(values);
  ASSERT_TRUE(generic.ok());

  EXPECT_LT(sparse->size(), generic->size() / 2)
      << "sliding-window delta should save >2x vs generic cascade";
  double ratio = static_cast<double>(values.size() * 8) /
                 static_cast<double>(sparse->size());
  EXPECT_GT(ratio, 8.0) << "expected strong compression on 87% overlap data";
}

TEST(SparseDelta, HandlesEmptyLists) {
  std::vector<int64_t> offsets = {0, 0, 3, 3, 5};
  std::vector<int64_t> values = {1, 2, 3, 4, 5};
  auto block = EncodeSparseDeltaColumn(offsets, values);
  ASSERT_TRUE(block.ok());
  std::vector<int64_t> oo, vv;
  ASSERT_TRUE(DecodeSparseDeltaColumn(block->AsSlice(), &oo, &vv).ok());
  EXPECT_EQ(oo, offsets);
  EXPECT_EQ(vv, values);
}

TEST(SparseDelta, SingleRow) {
  std::vector<int64_t> offsets = {0, 4};
  std::vector<int64_t> values = {9, 8, 7, 6};
  auto block = EncodeSparseDeltaColumn(offsets, values);
  ASSERT_TRUE(block.ok());
  std::vector<int64_t> oo, vv;
  ASSERT_TRUE(DecodeSparseDeltaColumn(block->AsSlice(), &oo, &vv).ok());
  EXPECT_EQ(oo, offsets);
  EXPECT_EQ(vv, values);
}

TEST(SparseDelta, RejectsCorruptBlock) {
  std::vector<int64_t> offsets = {0, 2};
  std::vector<int64_t> values = {1, 2};
  auto block = EncodeSparseDeltaColumn(offsets, values);
  ASSERT_TRUE(block.ok());
  std::vector<uint8_t> bytes(block->data(), block->data() + block->size());
  bytes.resize(bytes.size() / 2);  // truncate
  std::vector<int64_t> oo, vv;
  EXPECT_FALSE(
      DecodeSparseDeltaColumn(Slice(bytes.data(), bytes.size()), &oo, &vv)
          .ok());
}

}  // namespace
}  // namespace bullion
