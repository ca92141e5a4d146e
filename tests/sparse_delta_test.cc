// Sliding-window delta encoding tests (§2.2, Figs. 3-4).

#include <gtest/gtest.h>

#include <algorithm>
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

// The per-row decoder DecodeSparseDeltaAppend replaced: every row is
// built in its own vector and the previous row kept as another.
Status PerRowSparseDeltaDecode(Slice block, std::vector<int64_t>* offsets,
                               std::vector<int64_t>* values) {
  SliceReader in(block);
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(&in));
  if (header.type != EncodingType::kSparseDelta) {
    return Status::Corruption("expected sparse-delta block");
  }
  const size_t num_rows = header.count;
  std::vector<uint8_t> flags;
  std::vector<int64_t> range_starts, range_ends, head_lens, tail_lens, data;
  BULLION_RETURN_NOT_OK(DecodeBoolBlock(&in, &flags));
  BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &range_starts));
  BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &range_ends));
  BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &head_lens));
  BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &tail_lens));
  BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &data));
  if (flags.size() != num_rows || head_lens.size() != num_rows ||
      tail_lens.size() != num_rows ||
      range_ends.size() != range_starts.size()) {
    return Status::Corruption("metadata count mismatch");
  }
  offsets->assign(1, 0);
  values->clear();
  size_t data_pos = 0;
  size_t delta_idx = 0;
  std::vector<int64_t> prev;
  for (size_t r = 0; r < num_rows; ++r) {
    std::vector<int64_t> cur;
    if (head_lens[r] < 0 || tail_lens[r] < 0) {
      return Status::Corruption("negative head/tail length");
    }
    const size_t head = static_cast<size_t>(head_lens[r]);
    const size_t tail = static_cast<size_t>(tail_lens[r]);
    const size_t left = data.size() - data_pos;
    if (flags[r]) {
      if (delta_idx >= range_starts.size()) {
        return Status::Corruption("range stream exhausted");
      }
      if (range_starts[delta_idx] < 0 || range_ends[delta_idx] < 0) {
        return Status::Corruption("negative range");
      }
      const size_t s = static_cast<size_t>(range_starts[delta_idx]);
      const size_t e = static_cast<size_t>(range_ends[delta_idx]);
      ++delta_idx;
      if (s > e || e > prev.size()) return Status::Corruption("range");
      if (head > left || tail > left - head) {
        return Status::Corruption("data stream exhausted");
      }
      cur.insert(cur.end(), data.begin() + data_pos,
                 data.begin() + data_pos + head);
      data_pos += head;
      cur.insert(cur.end(), prev.begin() + s, prev.begin() + e);
      cur.insert(cur.end(), data.begin() + data_pos,
                 data.begin() + data_pos + tail);
      data_pos += tail;
    } else {
      if (tail > left) return Status::Corruption("base stream exhausted");
      cur.assign(data.begin() + data_pos, data.begin() + data_pos + tail);
      data_pos += tail;
    }
    values->insert(values->end(), cur.begin(), cur.end());
    offsets->push_back(static_cast<int64_t>(values->size()));
    prev = std::move(cur);
  }
  if (delta_idx != range_starts.size() || data_pos != data.size()) {
    return Status::Corruption("trailing payload");
  }
  return Status::OK();
}

TEST(SparseDelta, InPlaceDecodeMatchesPerRowDecoder) {
  const SweepCase cases[] = {{0.0, 16}, {0.3, 16}, {1.0, 64}, {0.25, 256},
                             {0.1, 1}};
  for (const SweepCase& c : cases) {
    std::vector<int64_t> offsets, values;
    MakeSlidingWindowData(12, 25, c.window, c.shift_prob, 5, &offsets,
                          &values);
    auto block = EncodeSparseDeltaColumn(offsets, values);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    std::vector<int64_t> want_offsets, want_values;
    ASSERT_TRUE(PerRowSparseDeltaDecode(block->AsSlice(), &want_offsets,
                                        &want_values)
                    .ok());
    std::vector<int64_t> got_offsets, got_values;
    ASSERT_TRUE(
        DecodeSparseDeltaColumn(block->AsSlice(), &got_offsets, &got_values)
            .ok());
    EXPECT_EQ(got_offsets, want_offsets);
    EXPECT_EQ(got_values, want_values);

    // Appending after existing rows rebases the offsets onto them and
    // leaves the earlier values alone.
    std::vector<int64_t> app_offsets = {0, 3};
    std::vector<int64_t> app_values = {-1, -2, -3};
    ASSERT_TRUE(
        DecodeSparseDeltaAppend(block->AsSlice(), &app_offsets, &app_values)
            .ok());
    ASSERT_EQ(app_offsets.size(), want_offsets.size() + 1);
    for (size_t r = 0; r < want_offsets.size(); ++r) {
      EXPECT_EQ(app_offsets[r + 1], want_offsets[r] + 3);
    }
    ASSERT_EQ(app_values.size(), want_values.size() + 3);
    EXPECT_TRUE(std::equal(want_values.begin(), want_values.end(),
                           app_values.begin() + 3));
    EXPECT_EQ(app_values[2], -3);
  }
}

TEST(SparseDelta, InPlaceDecodeAgreesWithPerRowDecoderOnCorruptBlocks) {
  std::vector<int64_t> offsets, values;
  MakeSlidingWindowData(6, 20, 16, 0.3, 9, &offsets, &values);
  auto block = EncodeSparseDeltaColumn(offsets, values);
  ASSERT_TRUE(block.ok());
  Random rng(31);
  size_t rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint8_t> bytes(block->data(), block->data() + block->size());
    for (int k = 0; k < 1 + trial % 3; ++k) {
      bytes[rng.Uniform(bytes.size())] ^=
          static_cast<uint8_t>(1 + rng.Uniform(255));
    }
    Slice corrupt(bytes.data(), bytes.size());
    std::vector<int64_t> wo, wv, go, gv;
    Status want = PerRowSparseDeltaDecode(corrupt, &wo, &wv);
    Status got = DecodeSparseDeltaColumn(corrupt, &go, &gv);
    ASSERT_EQ(got.ok(), want.ok()) << trial << ": " << got.ToString()
                                   << " vs " << want.ToString();
    if (got.ok()) {
      EXPECT_EQ(go, wo) << trial;
      EXPECT_EQ(gv, wv) << trial;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace bullion
