// Workload generator tests: Table 1 fidelity, zipf skew, sliding
// windows, core facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/bullion.h"
#include "workload/ads_schema.h"
#include "workload/sliding_window.h"
#include "workload/zipf.h"

namespace bullion {
namespace workload {
namespace {

TEST(Table1, BreakdownMatchesPaper) {
  const auto& t1 = Table1Breakdown();
  ASSERT_EQ(t1.size(), 14u);
  EXPECT_EQ(t1[0].type_name, "list<int64>");
  EXPECT_EQ(t1[0].column_count, 16256u);
  EXPECT_EQ(t1[1].column_count, 812u);
  EXPECT_EQ(t1.back().type_name, "int64");
  EXPECT_EQ(Table1TotalColumns(), 16256u + 812 + 277 + 143 + 120 + 46 + 29 +
                                      18 + 10 + 8 + 5 + 5 + 3 + 1);
}

TEST(AdsSchema, FullScaleLeafCount) {
  // At scale 1.0 the leaf count exceeds the field count because structs
  // flatten to one leaf per member.
  Schema schema = BuildAdsSchema(0.01);
  EXPECT_GT(schema.num_leaves(), 160u);  // 1% of ~17.7k fields
  // Every type present at least once.
  Schema tiny = BuildAdsSchema(0.0);
  EXPECT_GE(tiny.num_fields(), Table1Breakdown().size());
}

TEST(AdsSchema, GeneratedDataShape) {
  Schema schema = BuildAdsSchema(0.002);
  AdsDataOptions opts;
  opts.seq_length = 16;
  std::vector<ColumnVector> data = GenerateAdsData(schema, 50, 1, opts);
  ASSERT_EQ(data.size(), schema.num_leaves());
  for (size_t c = 0; c < data.size(); ++c) {
    EXPECT_EQ(data[c].num_rows(), 50u) << schema.leaves()[c].name;
  }
  // Sequence features have fixed window length.
  for (size_t c = 0; c < data.size(); ++c) {
    if (schema.leaves()[c].logical == LogicalType::kIdSequence) {
      auto [b, e] = data[c].ListRange(0);
      EXPECT_EQ(e - b, 16);
      break;
    }
  }
}

TEST(AdsSchema, WritesAndReadsThroughBullion) {
  Schema schema = BuildAdsSchema(0.001);
  std::vector<ColumnVector> data = GenerateAdsData(schema, 64, 2);
  InMemoryFileSystem fs;
  auto f = fs.NewWritableFile("ads");
  ASSERT_TRUE(WriteTableFile(f->get(), schema, {data}).ok());
  auto reader = *TableReader::Open(*fs.NewReadableFile("ads"));
  EXPECT_EQ(reader->num_columns(), schema.num_leaves());
  auto scan = Scan(reader.get()).Columns({schema.leaves()[0].name}).Collect();
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(*scan->ConcatColumn(0), data[0]);
}

TEST(Zipf, SkewConcentratesMass) {
  ZipfGenerator zipf(100000, 1.2, 7);
  std::map<uint64_t, size_t> freq;
  for (int i = 0; i < 50000; ++i) ++freq[zipf.Next()];
  // Top-10 ids should hold a large share under s=1.2.
  std::vector<size_t> counts;
  for (auto& [id, f] : freq) counts.push_back(f);
  std::sort(counts.rbegin(), counts.rend());
  size_t top10 = 0;
  for (size_t i = 0; i < 10 && i < counts.size(); ++i) top10 += counts[i];
  EXPECT_GT(top10, 50000u / 4);
  // All samples within range.
  for (auto& [id, f] : freq) EXPECT_LT(id, 100000u);
}

TEST(Zipf, Deterministic) {
  ZipfGenerator a(1000, 1.1, 9);
  ZipfGenerator b(1000, 1.1, 9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Zipf, DifferentSeedsDivergeDifferentSkewsConcentrate) {
  ZipfGenerator a(1000, 1.1, 9);
  ZipfGenerator c(1000, 1.1, 10);
  size_t same = 0;
  for (int i = 0; i < 200; ++i) {
    if (a.Next() == c.Next()) ++same;
  }
  // Streams from distinct seeds agree only by coincidence (skew makes
  // low ids collide often, so allow a generous margin).
  EXPECT_LT(same, 150u);

  // Higher s concentrates more mass on the most popular id.
  auto top_share = [](double s) {
    ZipfGenerator z(10000, s, 21);
    std::map<uint64_t, size_t> freq;
    for (int i = 0; i < 20000; ++i) ++freq[z.Next()];
    size_t top = 0;
    for (auto& [id, f] : freq) top = std::max(top, f);
    return top;
  };
  EXPECT_GT(top_share(1.4), top_share(0.8));
}

TEST(Zipf, SmallDomainStaysInRangeAndCoversIt) {
  // A serving-tier key stream over a tiny table: every sample must be
  // a valid row id, and skew must not starve the domain entirely.
  ZipfGenerator z(10, 1.2, 33);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    uint64_t k = z.Next();
    ASSERT_LT(k, 10u);
    seen.insert(k);
  }
  EXPECT_GE(seen.size(), 8u);
}

TEST(Zipf, NearOneExponentIsHandled) {
  // s == 1.0 takes the logarithmic normalization branch; make sure it
  // samples sanely rather than degenerating.
  ZipfGenerator z(100000, 1.0, 5);
  std::map<uint64_t, size_t> freq;
  for (int i = 0; i < 10000; ++i) ++freq[z.Next()];
  for (auto& [id, f] : freq) EXPECT_LT(id, 100000u);
  // id 0 is the mode under any positive skew.
  size_t max_f = 0;
  uint64_t max_id = 0;
  for (auto& [id, f] : freq) {
    if (f > max_f) {
      max_f = f;
      max_id = id;
    }
  }
  EXPECT_EQ(max_id, 0u);
}

TEST(SlidingWindow, OverlapControlledByShiftProb) {
  SlidingWindowOptions low_shift;
  low_shift.shift_prob = 0.05;
  low_shift.users = 5;
  low_shift.events_per_user = 50;
  low_shift.window = 64;
  SlidingWindowOptions high_shift = low_shift;
  high_shift.shift_prob = 1.0;

  std::vector<int64_t> off_a, val_a, off_b, val_b;
  MakeSlidingWindowColumn(low_shift, &off_a, &val_a);
  MakeSlidingWindowColumn(high_shift, &off_b, &val_b);
  ASSERT_EQ(off_a.size(), off_b.size());

  auto sparse_a = EncodeSparseDeltaColumn(off_a, val_a);
  auto sparse_b = EncodeSparseDeltaColumn(off_b, val_b);
  ASSERT_TRUE(sparse_a.ok());
  ASSERT_TRUE(sparse_b.ok());
  // Lower shift probability -> more overlap -> smaller encoding.
  EXPECT_LT(sparse_a->size(), sparse_b->size());
}

TEST(Figure1, SeriesShape) {
  const auto& fig1 = Figure1TableSizesPb();
  ASSERT_EQ(fig1.size(), 10u);
  EXPECT_DOUBLE_EQ(fig1[0].second, 100.0);
  for (size_t i = 1; i < fig1.size(); ++i) {
    EXPECT_LT(fig1[i].second, fig1[i - 1].second);
  }
  EXPECT_GT(EstimateBytesPerRow({}), 10000.0);
}

}  // namespace
}  // namespace workload
}  // namespace bullion
