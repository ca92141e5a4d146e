// Writer/reader/footer/page round-trip tests for the Bullion format.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "format/column_vector.h"
#include "format/footer.h"
#include "format/reader.h"
#include "format/schema.h"
#include "format/writer.h"
#include "io/file.h"
#include "reference_read.h"

namespace bullion {
namespace {

Schema MakeMixedSchema() {
  std::vector<Field> fields;
  fields.push_back({"uid", DataType::Primitive(PhysicalType::kInt64),
                    LogicalType::kPlain, true});
  fields.push_back({"ts", DataType::Primitive(PhysicalType::kInt64),
                    LogicalType::kTimestamp, false});
  fields.push_back({"score", DataType::Primitive(PhysicalType::kFloat64),
                    LogicalType::kQualityScore, false});
  fields.push_back({"tag", DataType::Primitive(PhysicalType::kBinary),
                    LogicalType::kPlain, false});
  fields.push_back({"clk_seq_cids",
                    DataType::List(DataType::Primitive(PhysicalType::kInt64)),
                    LogicalType::kIdSequence, false});
  fields.push_back({"emb",
                    DataType::List(DataType::Primitive(PhysicalType::kFloat32)),
                    LogicalType::kEmbedding, false});
  return Schema(std::move(fields));
}

std::vector<ColumnVector> MakeMixedData(const Schema& schema, size_t rows,
                                        uint64_t seed) {
  Random rng(seed);
  std::vector<ColumnVector> cols;
  for (const LeafColumn& leaf : schema.leaves()) {
    cols.push_back(ColumnVector::ForLeaf(leaf));
  }
  std::vector<int64_t> window;
  for (size_t r = 0; r < rows; ++r) {
    cols[0].AppendInt(static_cast<int64_t>(r / 4));         // uid
    cols[1].AppendInt(1700000000 + static_cast<int64_t>(r)); // ts
    cols[2].AppendReal(rng.NextDouble());                    // score
    cols[3].AppendBinary("tag" + std::to_string(r % 5));     // tag
    // clk_seq_cids: sliding window of 16 ids.
    if (window.empty() || rng.Bernoulli(0.25)) {
      window.insert(window.begin(), rng.UniformRange(0, 99));
      if (window.size() > 16) window.pop_back();
    }
    cols[4].AppendIntList(window);
    // emb: 8-dim embedding in (-1, 1).
    std::vector<double> emb(8);
    for (double& x : emb) x = std::tanh(rng.NextGaussian());
    cols[5].AppendRealList(emb);
  }
  return cols;
}

struct WriteResult {
  InMemoryFileSystem fs;
  std::string name = "t.bullion";
};

Status WriteTable(InMemoryFileSystem* fs, const std::string& name,
                  const Schema& schema,
                  const std::vector<std::vector<ColumnVector>>& groups,
                  WriterOptions options = {}) {
  auto file_res = fs->NewWritableFile(name);
  if (!file_res.ok()) return file_res.status();
  TableWriter writer(schema, file_res->get(), options);
  for (const auto& g : groups) {
    BULLION_RETURN_NOT_OK(writer.WriteRowGroup(g));
  }
  return writer.Finish();
}

Result<std::unique_ptr<TableReader>> OpenTable(InMemoryFileSystem* fs,
                                               const std::string& name) {
  auto file_res = fs->NewReadableFile(name);
  if (!file_res.ok()) return file_res.status();
  return TableReader::Open(std::move(*file_res));
}

TEST(WriterReader, RoundTripMixedSchema) {
  Schema schema = MakeMixedSchema();
  std::vector<ColumnVector> data = MakeMixedData(schema, 1000, 42);
  InMemoryFileSystem fs;
  WriterOptions wopts;
  wopts.rows_per_page = 128;
  ASSERT_TRUE(WriteTable(&fs, "t", schema, {data}, wopts).ok());

  auto reader_res = OpenTable(&fs, "t");
  ASSERT_TRUE(reader_res.ok()) << reader_res.status().ToString();
  auto& reader = *reader_res;
  EXPECT_EQ(reader->num_rows(), 1000u);
  EXPECT_EQ(reader->num_row_groups(), 1u);
  EXPECT_EQ(reader->num_columns(), schema.num_leaves());

  ReadOptions ropts;
  for (uint32_t c = 0; c < reader->num_columns(); ++c) {
    ColumnVector col;
    ASSERT_TRUE(reader->ReadColumnChunk(0, c, ropts, &col).ok())
        << "column " << c;
    EXPECT_EQ(col, data[c]) << "column " << schema.leaves()[c].name;
  }
}

TEST(WriterReader, MultipleRowGroups) {
  Schema schema = MakeMixedSchema();
  std::vector<std::vector<ColumnVector>> groups;
  for (int g = 0; g < 3; ++g) {
    groups.push_back(MakeMixedData(schema, 500, 100 + g));
  }
  InMemoryFileSystem fs;
  WriterOptions wopts;
  wopts.rows_per_page = 200;
  ASSERT_TRUE(WriteTable(&fs, "t", schema, groups, wopts).ok());

  auto reader = *OpenTable(&fs, "t");
  EXPECT_EQ(reader->num_rows(), 1500u);
  EXPECT_EQ(reader->num_row_groups(), 3u);
  ReadOptions ropts;
  for (uint32_t g = 0; g < 3; ++g) {
    for (uint32_t c = 0; c < reader->num_columns(); ++c) {
      ColumnVector col;
      ASSERT_TRUE(reader->ReadColumnChunk(g, c, ropts, &col).ok());
      EXPECT_EQ(col, groups[g][c]) << "g=" << g << " c=" << c;
    }
  }
}

TEST(WriterReader, ProjectionWithCoalescing) {
  Schema schema = MakeMixedSchema();
  std::vector<ColumnVector> data = MakeMixedData(schema, 800, 7);
  InMemoryFileSystem fs;
  ASSERT_TRUE(WriteTable(&fs, "t", schema, {data}).ok());

  auto reader = *OpenTable(&fs, "t");
  auto cols_res = reader->ResolveColumns({"emb", "uid"});
  ASSERT_TRUE(cols_res.ok());
  ReadOptions ropts;
  std::vector<ColumnVector> out;
  ASSERT_TRUE(reader->ReadProjection(0, *cols_res, ropts, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], data[5]);  // emb
  EXPECT_EQ(out[1], data[0]);  // uid
}

TEST(WriterReader, ProjectionCoalescesIo) {
  Schema schema = MakeMixedSchema();
  std::vector<ColumnVector> data = MakeMixedData(schema, 500, 8);
  InMemoryFileSystem fs;
  ASSERT_TRUE(WriteTable(&fs, "t", schema, {data}).ok());
  auto reader = *OpenTable(&fs, "t");

  // Adjacent columns with a generous gap: one coalesced read.
  fs.ResetStats();
  ReadOptions coalesce;
  coalesce.coalesce_gap_bytes = 1 << 20;
  coalesce.max_coalesced_bytes = 64ull << 20;
  std::vector<ColumnVector> out;
  ASSERT_TRUE(
      reader->ReadProjection(0, {0, 1, 2}, coalesce, &out).ok());
  uint64_t coalesced_ops = fs.stats().read_ops;

  fs.ResetStats();
  ReadOptions nogap;
  nogap.coalesce_gap_bytes = 0;
  // Force per-chunk reads by disallowing any merge.
  nogap.max_coalesced_bytes = 1;
  ASSERT_TRUE(reader->ReadProjection(0, {0, 1, 2}, nogap, &out).ok());
  uint64_t separate_ops = fs.stats().read_ops;

  EXPECT_LT(coalesced_ops, separate_ops);
  EXPECT_EQ(coalesced_ops, 1u);
}

TEST(WriterReader, ColumnReorderingKeepsData) {
  Schema schema = MakeMixedSchema();
  std::vector<ColumnVector> data = MakeMixedData(schema, 300, 9);
  InMemoryFileSystem fs;
  WriterOptions wopts;
  wopts.column_order = {5, 3, 1, 0, 2, 4};  // arbitrary placement
  ASSERT_TRUE(WriteTable(&fs, "t", schema, {data}, wopts).ok());
  auto reader = *OpenTable(&fs, "t");
  ReadOptions ropts;
  for (uint32_t c = 0; c < reader->num_columns(); ++c) {
    ColumnVector col;
    ASSERT_TRUE(reader->ReadColumnChunk(0, c, ropts, &col).ok());
    EXPECT_EQ(col, data[c]) << "c=" << c;
  }
}

TEST(WriterReader, QualitySortReordersRows) {
  Schema schema = MakeMixedSchema();
  std::vector<ColumnVector> data = MakeMixedData(schema, 200, 10);
  InMemoryFileSystem fs;
  WriterOptions wopts;
  wopts.quality_sort_column = 2;  // "score"
  ASSERT_TRUE(WriteTable(&fs, "t", schema, {data}, wopts).ok());
  auto reader = *OpenTable(&fs, "t");
  ReadOptions ropts;
  ColumnVector scores;
  ASSERT_TRUE(reader->ReadColumnChunk(0, 2, ropts, &scores).ok());
  for (size_t i = 1; i < scores.real_values().size(); ++i) {
    EXPECT_GE(scores.real_values()[i - 1], scores.real_values()[i]);
  }
  // Row alignment preserved: uid[i] should carry the score's original
  // row, checked via joint permutation.
  ColumnVector uid;
  ASSERT_TRUE(reader->ReadColumnChunk(0, 0, ropts, &uid).ok());
  std::vector<uint32_t> perm = SortPermutationDescending(
      data[2].real_values());
  for (size_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(uid.int_values()[i], data[0].int_values()[perm[i]]);
  }
}

TEST(WriterReader, VerifyChecksumsClean) {
  Schema schema = MakeMixedSchema();
  std::vector<ColumnVector> data = MakeMixedData(schema, 400, 11);
  InMemoryFileSystem fs;
  ASSERT_TRUE(WriteTable(&fs, "t", schema, {data}).ok());
  auto reader = *OpenTable(&fs, "t");
  EXPECT_TRUE(reader->VerifyChecksums().ok());
}

TEST(WriterReader, DetectsCorruption) {
  Schema schema = MakeMixedSchema();
  std::vector<ColumnVector> data = MakeMixedData(schema, 400, 12);
  InMemoryFileSystem fs;
  ASSERT_TRUE(WriteTable(&fs, "t", schema, {data}).ok());
  // Flip a byte in the middle of the data region.
  {
    auto f = fs.OpenForUpdate("t");
    ASSERT_TRUE(f.ok());
    uint8_t evil = 0xA5;
    ASSERT_TRUE((*f)->WriteAt(100, Slice(&evil, 1)).ok());
  }
  auto reader = *OpenTable(&fs, "t");
  EXPECT_FALSE(reader->VerifyChecksums().ok());
}

TEST(WriterReader, OpenRejectsGarbage) {
  InMemoryFileSystem fs;
  {
    auto f = fs.NewWritableFile("junk");
    std::vector<uint8_t> junk(256, 0x3C);
    ASSERT_TRUE((*f)->Append(Slice(junk.data(), junk.size())).ok());
  }
  auto res = OpenTable(&fs, "junk");
  EXPECT_FALSE(res.ok());
}

TEST(WriterReader, EmptyRowGroupRejected) {
  Schema schema = MakeMixedSchema();
  std::vector<ColumnVector> empty;
  for (const LeafColumn& leaf : schema.leaves()) {
    empty.push_back(ColumnVector::ForLeaf(leaf));
  }
  InMemoryFileSystem fs;
  auto f = fs.NewWritableFile("t");
  TableWriter writer(schema, f->get(), {});
  EXPECT_FALSE(writer.WriteRowGroup(empty).ok());
}

TEST(WriterReader, FindColumnBinarySearch) {
  Schema schema = MakeMixedSchema();
  std::vector<ColumnVector> data = MakeMixedData(schema, 100, 13);
  InMemoryFileSystem fs;
  ASSERT_TRUE(WriteTable(&fs, "t", schema, {data}).ok());
  auto reader = *OpenTable(&fs, "t");
  for (uint32_t c = 0; c < schema.num_leaves(); ++c) {
    auto idx = reader->footer().FindColumn(schema.leaves()[c].name);
    ASSERT_TRUE(idx.ok());
    EXPECT_EQ(*idx, c);
  }
  EXPECT_FALSE(reader->footer().FindColumn("no_such_column").ok());
}

TEST(WriterReader, WideSchemaManyColumns) {
  // A narrow slice of the Table 1 world: hundreds of columns.
  std::vector<Field> fields;
  for (int i = 0; i < 300; ++i) {
    fields.push_back({"feat_" + std::to_string(i),
                      DataType::Primitive(PhysicalType::kInt64),
                      LogicalType::kPlain, false});
  }
  Schema schema(std::move(fields));
  Random rng(77);
  std::vector<ColumnVector> data;
  for (const LeafColumn& leaf : schema.leaves()) {
    ColumnVector col = ColumnVector::ForLeaf(leaf);
    for (int r = 0; r < 50; ++r) col.AppendInt(rng.UniformRange(0, 1000));
    data.push_back(std::move(col));
  }
  InMemoryFileSystem fs;
  ASSERT_TRUE(WriteTable(&fs, "wide", schema, {data}).ok());
  auto reader = *OpenTable(&fs, "wide");
  EXPECT_EQ(reader->num_columns(), 300u);
  ReadOptions ropts;
  ColumnVector col;
  ASSERT_TRUE(reader->ReadColumnChunk(0, 123, ropts, &col).ok());
  EXPECT_EQ(col, data[123]);
}

TEST(WriterReader, StructFlattening) {
  std::vector<Field> fields;
  fields.push_back(
      {"pair",
       DataType::Struct({DataType::List(DataType::Primitive(PhysicalType::kInt64)),
                         DataType::List(DataType::Primitive(PhysicalType::kFloat32))}),
       LogicalType::kPlain, false});
  Schema schema(std::move(fields));
  ASSERT_EQ(schema.num_leaves(), 2u);
  EXPECT_EQ(schema.leaves()[0].name, "pair.f0");
  EXPECT_EQ(schema.leaves()[1].name, "pair.f1");
  EXPECT_EQ(schema.leaves()[0].list_depth, 1);

  std::vector<ColumnVector> data;
  data.push_back(ColumnVector::ForLeaf(schema.leaves()[0]));
  data.push_back(ColumnVector::ForLeaf(schema.leaves()[1]));
  for (int r = 0; r < 100; ++r) {
    data[0].AppendIntList({r, r + 1, r + 2});
    data[1].AppendRealList({r * 0.5, r * 0.25});
  }
  InMemoryFileSystem fs;
  ASSERT_TRUE(WriteTable(&fs, "t", schema, {data}).ok());
  auto reader = *OpenTable(&fs, "t");
  auto leaves = schema.LeavesOfField("pair");
  ASSERT_TRUE(leaves.ok());
  EXPECT_EQ(leaves->size(), 2u);
  ReadOptions ropts;
  ColumnVector col;
  ASSERT_TRUE(reader->ReadColumnChunk(0, 0, ropts, &col).ok());
  EXPECT_EQ(col, data[0]);
}

TEST(WriterReader, ListOfListColumns) {
  std::vector<Field> fields;
  fields.push_back({"nested",
                    DataType::List(DataType::List(
                        DataType::Primitive(PhysicalType::kInt64))),
                    LogicalType::kPlain, false});
  Schema schema(std::move(fields));
  ASSERT_EQ(schema.leaves()[0].list_depth, 2);

  std::vector<ColumnVector> data;
  data.push_back(ColumnVector::ForLeaf(schema.leaves()[0]));
  Random rng(3);
  for (int r = 0; r < 200; ++r) {
    std::vector<std::vector<int64_t>> row;
    size_t inner = rng.Uniform(4);
    for (size_t i = 0; i < inner; ++i) {
      std::vector<int64_t> v(rng.Uniform(6));
      for (auto& x : v) x = rng.UniformRange(-50, 50);
      row.push_back(v);
    }
    data[0].AppendIntListList(row);
  }
  InMemoryFileSystem fs;
  ASSERT_TRUE(WriteTable(&fs, "t", schema, {data}).ok());
  auto reader = *OpenTable(&fs, "t");
  ReadOptions ropts;
  ColumnVector col;
  ASSERT_TRUE(reader->ReadColumnChunk(0, 0, ropts, &col).ok());
  EXPECT_EQ(col, data[0]);
}

// ---------------------------------------------------------------------------
// The typed gather (AppendRows / AppendRowRange) against a per-row
// reference copy, and the in-place chunk and page-run decodes against
// the former decode-into-a-temporary readers.
// ---------------------------------------------------------------------------

/// `rows` random rows of the given shape, no nulls: lists of 0..4
/// items per level (so empty lists occur).
ColumnVector MakeGatherRows(PhysicalType type, int depth, size_t rows,
                            uint64_t seed) {
  Random rng(seed);
  ColumnVector col(type, depth);
  auto push_value = [&]() {
    switch (col.domain()) {
      case ValueDomain::kInt:
        col.mutable_int_values().push_back(rng.UniformRange(-1000, 1000));
        break;
      case ValueDomain::kReal:
        col.mutable_real_values().push_back(rng.NextGaussian());
        break;
      case ValueDomain::kBinary:
        col.mutable_bin_values().push_back(
            std::string(rng.Uniform(40), static_cast<char>('a' + rng.Uniform(26))));
        break;
    }
  };
  auto& offs = col.mutable_offsets();
  for (size_t r = 0; r < rows; ++r) {
    if (depth == 0) {
      push_value();
      continue;
    }
    const size_t items = rng.Uniform(5);
    for (size_t i = 0; i < items; ++i) {
      if (depth == 1) {
        push_value();
        continue;
      }
      const size_t n = rng.Uniform(5);
      for (size_t k = 0; k < n; ++k) push_value();
      offs[1].push_back(static_cast<int64_t>(col.LeafCount()));
    }
    offs[0].push_back(depth == 1 ? static_cast<int64_t>(col.LeafCount())
                                 : static_cast<int64_t>(offs[1].size()) - 1);
  }
  return col;
}

/// Expected content of gathering `rows` of `src` after `prefix` (rows
/// of `src` too), one value at a time.
ColumnVector ReferenceGather(const ColumnVector& src,
                             const std::vector<uint32_t>& prefix,
                             const std::vector<uint32_t>& rows) {
  ColumnVector out(src.physical(), src.list_depth());
  for (uint32_t r : prefix) reference::AppendRow(src, r, &out);
  for (uint32_t r : rows) reference::AppendRow(src, r, &out);
  return out;
}

void ExpectSameContent(const ColumnVector& got, const ColumnVector& want,
                       const std::string& what) {
  EXPECT_EQ(got.offsets(), want.offsets()) << what;
  EXPECT_EQ(got.int_values(), want.int_values()) << what;
  EXPECT_EQ(got.real_values(), want.real_values()) << what;
  EXPECT_EQ(got.bin_values(), want.bin_values()) << what;
  EXPECT_EQ(got.num_rows(), want.num_rows()) << what;
}

TEST(Gather, MatchesPerRowReferenceAcrossDepthsTypesAndNulls) {
  const PhysicalType types[] = {PhysicalType::kInt64, PhysicalType::kFloat64,
                                PhysicalType::kBinary};
  for (PhysicalType type : types) {
    for (int depth = 0; depth <= 2; ++depth) {
      const std::string shape = std::string(PhysicalTypeName(type)) +
                                " depth " + std::to_string(depth);
      const size_t n = 60;
      ColumnVector plain = MakeGatherRows(type, depth, n, 7 + depth);
      // The same rows with every seventh one null (its stored content
      // is the zero/empty placeholder).
      ColumnVector src(type, depth);
      for (size_t r = 0; r < n; ++r) {
        if (r % 7 == 3) {
          src.AppendNullRow();
        } else {
          src.AppendRowRange(plain, r, r + 1);
        }
      }
      ASSERT_EQ(src.num_rows(), n) << shape;
      for (size_t r = 0; r < n; ++r) {
        ASSERT_EQ(src.IsNull(r), r % 7 == 3) << shape << " row " << r;
      }

      Random rng(depth + 100);
      std::vector<std::vector<uint32_t>> selections = {
          {}, {5}, {3, 3, 3}, {59, 0, 59}, {10, 11, 12, 13, 40, 41, 2}};
      std::vector<uint32_t> all(n), reversed(n), random(90);
      for (uint32_t r = 0; r < n; ++r) all[r] = r;
      for (uint32_t r = 0; r < n; ++r) reversed[r] = n - 1 - r;
      for (auto& r : random) r = static_cast<uint32_t>(rng.Uniform(n));
      selections.push_back(all);
      selections.push_back(reversed);
      selections.push_back(random);

      const std::vector<uint32_t> prefix = {1, 3, 2};
      for (const std::vector<uint32_t>& sel : selections) {
        const std::string what = shape + " selection of " +
                                 std::to_string(sel.size());
        ColumnVector want = ReferenceGather(src, {}, sel);

        auto permuted = src.Permute(sel);
        ASSERT_TRUE(permuted.ok()) << what;
        ExpectSameContent(*permuted, want, what + " (Permute)");
        size_t nulls = 0;
        for (size_t i = 0; i < sel.size(); ++i) {
          EXPECT_EQ(permuted->IsNull(i), src.IsNull(sel[i])) << what;
          nulls += src.IsNull(sel[i]);
        }
        EXPECT_EQ(permuted->null_count(), nulls) << what;

        // Appending after rows already present rebases every level.
        ColumnVector appended(type, depth);
        for (uint32_t r : prefix) appended.AppendRowFrom(src, r);
        appended.AppendRows(src, sel);
        ExpectSameContent(appended, ReferenceGather(src, prefix, sel),
                          what + " (after a prefix)");
        for (size_t i = 0; i < sel.size(); ++i) {
          EXPECT_EQ(appended.IsNull(prefix.size() + i), src.IsNull(sel[i]))
              << what;
        }
      }

      // The row-range form equals gathering the range's indices.
      for (auto [b, e] : {std::pair<size_t, size_t>{0, n}, {4, 4}, {4, 5},
                          {17, 45}}) {
        ColumnVector range(type, depth);
        range.AppendRowFrom(src, 2);
        range.AppendRowRange(src, b, e);
        std::vector<uint32_t> idx;
        for (size_t r = b; r < e; ++r) idx.push_back(static_cast<uint32_t>(r));
        ExpectSameContent(range, ReferenceGather(src, {2}, idx),
                          shape + " range " + std::to_string(b) + ".." +
                              std::to_string(e));
      }

      // Placeholders are valid zero/empty rows; the gather rejects
      // nothing but Permute checks its indices.
      ColumnVector holes(type, depth);
      holes.AppendRowFrom(src, -1);
      holes.AppendRowFrom(src, 0);
      holes.AppendRowFrom(src, -1);
      ColumnVector want_holes(type, depth);
      reference::AppendRow(src, -1, &want_holes);
      reference::AppendRow(src, 0, &want_holes);
      reference::AppendRow(src, -1, &want_holes);
      ExpectSameContent(holes, want_holes, shape + " placeholders");
      EXPECT_FALSE(src.Permute({static_cast<uint32_t>(n)}).ok()) << shape;
    }
  }
}

TEST(ReaderIdentity, NoDeleteChunksAndPageRunsMatchPerRowReference) {
  std::vector<Field> fields = MakeMixedSchema().fields();
  fields.push_back({"nested",
                    DataType::List(DataType::List(
                        DataType::Primitive(PhysicalType::kInt64))),
                    LogicalType::kPlain, false});
  fields.push_back({"nested_real",
                    DataType::List(DataType::List(
                        DataType::Primitive(PhysicalType::kFloat64))),
                    LogicalType::kPlain, false});
  fields.push_back({"tags",
                    DataType::List(DataType::Primitive(PhysicalType::kBinary)),
                    LogicalType::kPlain, false});
  Schema schema(std::move(fields));
  std::vector<std::vector<ColumnVector>> groups;
  for (uint64_t g = 0; g < 3; ++g) {
    const size_t rows = 700 + 150 * g;
    std::vector<ColumnVector> data = MakeMixedData(MakeMixedSchema(), rows, g);
    data.push_back(MakeGatherRows(PhysicalType::kInt64, 2, rows, 10 + g));
    data.push_back(MakeGatherRows(PhysicalType::kFloat64, 2, rows, 20 + g));
    data.push_back(MakeGatherRows(PhysicalType::kBinary, 1, rows, 30 + g));
    groups.push_back(std::move(data));
  }
  for (bool sparse_delta : {false, true}) {
    InMemoryFileSystem fs;
    WriterOptions wopts;
    wopts.rows_per_page = 128;
    wopts.enable_sparse_delta = sparse_delta;
    ASSERT_TRUE(WriteTable(&fs, "t", schema, groups, wopts).ok());
    auto reader = *OpenTable(&fs, "t");
    reference::ExpectReaderMatchesReference(*reader);
    // And both equal what was written.
    for (uint32_t g = 0; g < groups.size(); ++g) {
      for (uint32_t c = 0; c < schema.num_leaves(); ++c) {
        ColumnVector col;
        ASSERT_TRUE(reader->ReadColumnChunk(g, c, ReadOptions{}, &col).ok());
        EXPECT_EQ(col, groups[g][c]) << schema.leaves()[c].name;
      }
    }
  }
}

TEST(Footer, ReconstructSchemaLeafLevel) {
  Schema schema = MakeMixedSchema();
  std::vector<ColumnVector> data = MakeMixedData(schema, 50, 15);
  InMemoryFileSystem fs;
  ASSERT_TRUE(WriteTable(&fs, "t", schema, {data}).ok());
  auto reader = *OpenTable(&fs, "t");
  Schema rec = reader->footer().ReconstructSchema();
  ASSERT_EQ(rec.num_leaves(), schema.num_leaves());
  for (uint32_t c = 0; c < schema.num_leaves(); ++c) {
    EXPECT_EQ(rec.leaves()[c].name, schema.leaves()[c].name);
    EXPECT_EQ(rec.leaves()[c].physical, schema.leaves()[c].physical);
    EXPECT_EQ(rec.leaves()[c].list_depth, schema.leaves()[c].list_depth);
  }
}

TEST(Footer, OpenIsTwoReads) {
  Schema schema = MakeMixedSchema();
  std::vector<ColumnVector> data = MakeMixedData(schema, 100, 16);
  InMemoryFileSystem fs;
  ASSERT_TRUE(WriteTable(&fs, "t", schema, {data}).ok());
  fs.ResetStats();
  auto reader = *OpenTable(&fs, "t");
  EXPECT_EQ(fs.stats().read_ops, 2u) << "open must be trailer + footer";
}

}  // namespace
}  // namespace bullion
