// Storage quantization pipeline (§2.4): take FP32 embeddings, pick a
// per-feature precision under an error budget, store the quantized bit
// patterns in a Bullion table, and read them back for "serving".
//
//   ./build/examples/quantized_embeddings

#include <cmath>
#include <cstdio>

#include "core/bullion.h"

using namespace bullion;  // NOLINT(google-build-using-namespace)

int main() {
  // Upstream model emits 64-dim FP32 embeddings, normalized to (-1,1).
  constexpr size_t kRowsN = 20000;
  constexpr size_t kDim = 64;
  Random rng(4242);
  std::vector<float> flat(kRowsN * kDim);
  for (auto& x : flat) {
    x = static_cast<float>(std::tanh(rng.NextGaussian() * 0.5));
  }

  // Per-feature precision choice under a relative-L2 budget.
  PrecisionConstraint constraint;
  constraint.max_relative_l2 = 5e-3;
  PrecisionAssignment plan = MixedPrecisionPolicy::Assign(
      std::span<const float>(flat.data(), 4096), constraint);
  std::printf("chosen precision: %s (rel_l2 on sample: %.2e)\n",
              std::string(PrecisionName(plan.precision)).c_str(),
              plan.error.relative_l2);

  // Quantize and store as a Bullion table: embeddings ride the int
  // domain as bit patterns.
  std::vector<int64_t> bits = QuantizeFloats(flat, plan.precision);
  Schema schema({
      Field{"emb", DataType::List(DataType::Primitive(
                       PrecisionPhysicalType(plan.precision))),
            LogicalType::kEmbedding, false},
  });
  std::vector<ColumnVector> cols;
  cols.push_back(ColumnVector::ForLeaf(schema.leaves()[0]));
  for (size_t r = 0; r < kRowsN; ++r) {
    cols[0].AppendIntList(std::vector<int64_t>(
        bits.begin() + static_cast<int64_t>(r * kDim),
        bits.begin() + static_cast<int64_t>((r + 1) * kDim)));
  }

  InMemoryFileSystem fs;
  {
    auto f = fs.NewWritableFile("emb");
    BULLION_CHECK_OK(WriteTableFile(f->get(), schema, {cols}));
  }
  double fp32_mb = flat.size() * 4.0 / 1048576.0;
  double stored_mb = *fs.FileSize("emb") / 1048576.0;
  std::printf("raw FP32: %.2f MB  -> stored (%s + cascade): %.2f MB "
              "(%.2fx saved)\n",
              fp32_mb, std::string(PrecisionName(plan.precision)).c_str(),
              stored_mb, fp32_mb / stored_mb);

  // "Serving": read a row back and dequantize for similarity search.
  auto reader = *TableReader::Open(*fs.NewReadableFile("emb"));
  auto emb_col =
      Scan(reader.get()).Columns({"emb"}).Collect()->ConcatColumn(0);
  std::vector<int64_t> row_bits = emb_col->IntListAt(123);
  std::vector<float> row = DequantizeFloats(row_bits, plan.precision);

  double err = 0;
  for (size_t d = 0; d < kDim; ++d) {
    err += std::abs(row[d] - flat[123 * kDim + d]);
  }
  std::printf("row 123 mean abs dequantization error: %.3e\n", err / kDim);

  // Business-critical path: dual-column split (§2.4 opportunity 3).
  DualColumn dual = SplitDualColumn(
      std::span<const float>(flat.data(), kDim));
  std::vector<float> exact = ReconstructDual(dual);
  double dual_err = 0;
  for (size_t d = 0; d < kDim; ++d) {
    dual_err += std::abs(exact[d] - flat[d]);
  }
  std::printf("dual-column (2xFP16) reconstruction mean abs err: %.3e\n",
              dual_err / kDim);
  return 0;
}
