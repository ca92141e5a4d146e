// Cascade selector and public entry points of the encoding framework.
//
// EncodeInt64Column / EncodeDoubleColumn / EncodeStringColumn /
// EncodeBoolColumn sample the input, gate candidate encodings on
// full-data statistics (so a sampled winner can never fail on the full
// column), price each candidate on the sample (by formula where one is
// exact, else by a trial encode that is skipped when the codec's
// minimum size cannot win), score them with the linear objective from
// CascadeOptions, and emit the winning self-describing block. Child
// streams recurse through CascadeContext until max_depth.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "encoding/encoding.h"
#include "encoding/stats.h"

namespace bullion {

/// \brief Recursion state threaded through nested encoders.
///
/// Child streams (dictionary codes, RLE run lengths, delta values, ...)
/// are encoded by calling EncodeIntChild/EncodeBoolChild, which apply
/// cascade selection again at depth+1, or fall back to a cheap direct
/// encoding at the depth limit.
class CascadeContext {
 public:
  explicit CascadeContext(const CascadeOptions& options, int depth = 0)
      : options_(options), depth_(depth) {}

  const CascadeOptions& options() const { return options_; }
  int depth() const { return depth_; }
  bool AtDepthLimit() const { return depth_ >= options_.max_depth; }

  /// Encodes a child int64 stream as a complete block, recursing.
  Status EncodeIntChild(std::span<const int64_t> values, BufferBuilder* out);

  /// Encodes a child bool stream (one byte per value) as a block.
  Status EncodeBoolChild(std::span<const uint8_t> values, BufferBuilder* out);

 private:
  const CascadeOptions& options_;
  int depth_;
};

// ---------------------------------------------------------------------------
// Forced encoders: write a complete block using one specific encoding.
// Used by the selector, by ablation benches, and by the format layer
// when a column must stay in-place deletable (§2.1 restricts deletable
// pages to maskable encodings).
// ---------------------------------------------------------------------------

Status EncodeIntBlockAs(EncodingType type, std::span<const int64_t> values,
                        CascadeContext* ctx, BufferBuilder* out);
Status EncodeDoubleBlockAs(EncodingType type, std::span<const double> values,
                           CascadeContext* ctx, BufferBuilder* out);
Status EncodeStringBlockAs(EncodingType type,
                           std::span<const std::string> values,
                           CascadeContext* ctx, BufferBuilder* out);
Status EncodeBoolBlockAs(EncodingType type, std::span<const uint8_t> values,
                         CascadeContext* ctx, BufferBuilder* out);

// ---------------------------------------------------------------------------
// Block decoders: dispatch on the block's type tag. The reader is
// positioned at the block header and left positioned one byte past the
// block payload.
// ---------------------------------------------------------------------------

Status DecodeIntBlock(SliceReader* in, std::vector<int64_t>* out);
Status DecodeDoubleBlock(SliceReader* in, std::vector<double>* out);
Status DecodeStringBlock(SliceReader* in, std::vector<std::string>* out);
Status DecodeBoolBlock(SliceReader* in, std::vector<uint8_t>* out);

/// Decodes an int block into caller-preallocated storage; the block's
/// header count must equal out.size(). The payload decodes through the
/// dispatched block kernels with no intermediate vector.
Status DecodeIntBlockInto(SliceReader* in, std::span<int64_t> out);

/// Decodes an int block appended to `out`: one resize by the header
/// count, then payload decode straight into the new tail. Lets page
/// decode land values directly in ColumnVector storage.
Status DecodeIntBlockAppend(SliceReader* in, std::vector<int64_t>* out);

/// The double-domain twin of DecodeIntBlockAppend.
Status DecodeDoubleBlockAppend(SliceReader* in, std::vector<double>* out);

// ---------------------------------------------------------------------------
// Cascade entry points: select + encode.
// ---------------------------------------------------------------------------

/// Selects the best encoding for an int64 column and returns the block.
Result<Buffer> EncodeInt64Column(std::span<const int64_t> values,
                                 const CascadeOptions& options = {});
Status DecodeInt64Column(Slice block, std::vector<int64_t>* out);

Result<Buffer> EncodeDoubleColumn(std::span<const double> values,
                                  const CascadeOptions& options = {});
Status DecodeDoubleColumn(Slice block, std::vector<double>* out);

Result<Buffer> EncodeStringColumn(std::span<const std::string> values,
                                  const CascadeOptions& options = {});
Status DecodeStringColumn(Slice block, std::vector<std::string>* out);

Result<Buffer> EncodeBoolColumn(std::span<const uint8_t> values,
                                const CascadeOptions& options = {});
Status DecodeBoolColumn(Slice block, std::vector<uint8_t>* out);

/// Nullable composition: validity (1 = present) + dense non-null values.
Result<Buffer> EncodeNullableInt64Column(std::span<const int64_t> values,
                                         std::span<const uint8_t> validity,
                                         const CascadeOptions& options = {});
/// Decodes a nullable block; absent positions get `null_fill` and
/// validity (if non-null) receives the indicator bytes.
Status DecodeNullableInt64Column(Slice block, int64_t null_fill,
                                 std::vector<int64_t>* values,
                                 std::vector<uint8_t>* validity);

// ---------------------------------------------------------------------------
// Selection pricing (see "Selection" in encoding/README.md).
// ---------------------------------------------------------------------------

/// Proven lower bound on the size of any block of `count` values that
/// the forced encoder of `type` writes in the value domain of T
/// (int64_t, double, std::string, or uint8_t for bools): the header
/// plus the codec's fixed framing. The selector skips a trial whose
/// bound cannot beat the best candidate found so far.
template <typename T>
size_t MinBlockBytes(EncodingType type, size_t count);

/// \brief Exact block sizes of the int encodings whose size is a closed
/// formula over the values: Constant, FixedBitWidth, ForDelta,
/// FastBP128, Varint, ZigZag and Trivial. One pass over the values.
class IntBlockSizer {
 public:
  explicit IntBlockSizer(std::span<const int64_t> values);

  /// Size of the block EncodeIntBlockAs(t, values) writes, or nullopt
  /// when `t` is not formula-priced or would reject these values.
  std::optional<size_t> BlockBytes(EncodingType t) const;

 private:
  size_t count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  size_t varint_bytes_ = 0;
  size_t zigzag_bytes_ = 0;
  size_t bp128_bytes_ = 0;
};

/// Selection decision record (exposed for tests/benches/EXPERIMENTS).
struct SelectionDecision {
  EncodingType chosen;
  double cost;
  size_t trial_bytes;
};

/// Like EncodeInt64Column but also reports what was chosen and why.
Result<Buffer> EncodeInt64ColumnWithDecision(std::span<const int64_t> values,
                                             const CascadeOptions& options,
                                             SelectionDecision* decision);

/// Peeks the top-level encoding type of an encoded block.
Result<EncodingType> PeekEncodingType(Slice block);

}  // namespace bullion
