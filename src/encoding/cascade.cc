// Cascade selection, block dispatch, and the public encoding API.

#include "encoding/cascade.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "common/bit_util.h"
#include "common/varint.h"
#include "encoding/bool_codecs.h"
#include "encoding/deflate_util.h"
#include "encoding/float_codecs.h"
#include "encoding/int_codecs.h"
#include "encoding/stats.h"
#include "encoding/string_codecs.h"

namespace bullion {

namespace {

/// Takes up to `target` values as up-to-8 evenly spaced contiguous
/// chunks, preserving local run/delta structure the selector must see.
/// An input no larger than `target` is its own sample (no copy); a
/// larger one is copied into `storage`.
template <typename T>
std::span<const T> SampleChunks(std::span<const T> values, size_t target,
                                std::vector<T>* storage) {
  if (values.size() <= target) return values;
  size_t n_chunks = 8;
  size_t chunk = target / n_chunks;
  storage->reserve(chunk * n_chunks);
  for (size_t c = 0; c < n_chunks; ++c) {
    size_t start = (values.size() - chunk) * c / (n_chunks - 1);
    storage->insert(storage->end(), values.begin() + start,
                    values.begin() + start + chunk);
  }
  return *storage;
}

double ScoreCost(const CascadeOptions& opts, EncodingType t, size_t est_bytes,
                 size_t count) {
  EncodingCost c = GetEncodingCost(t);
  return opts.w_size * static_cast<double>(est_bytes) +
         opts.w_encode * c.encode * static_cast<double>(count) +
         opts.w_decode * c.decode * static_cast<double>(count);
}

/// Int encodings whose payload holds child blocks encoded through
/// CascadeContext::EncodeIntChild (or EncodeBoolChild).
bool IntEncodingHasChildren(EncodingType t) {
  return t == EncodingType::kDelta || t == EncodingType::kMainlyConstant ||
         t == EncodingType::kRle || t == EncodingType::kDictionary;
}

}  // namespace

// ---------------------------------------------------------------------------
// Selection pricing.
// ---------------------------------------------------------------------------

namespace {

size_t VarintBytes(uint64_t v) {
  return static_cast<size_t>(varint::VarintLength(v));
}

size_t HeaderBytes(size_t count) { return 1 + VarintBytes(count); }

/// Smallest complete int block of `count` values: every int encoding
/// writes at least one payload byte for a non-empty stream.
size_t MinIntChildBytes(size_t count) {
  return HeaderBytes(count) + (count > 0 ? 1 : 0);
}

/// Smallest deflate_util::CompressChunked output for `raw` input bytes:
/// the chunk count, then per chunk its raw and compressed length
/// varints, the 2-byte zlib header, at least one byte of deflate data
/// and the 4-byte Adler-32.
size_t MinDeflateBytes(size_t raw) {
  const size_t n_chunks = bit_util::CeilDiv(raw, deflate_util::kChunkSize);
  size_t bytes = VarintBytes(n_chunks);
  for (size_t c = 0; c < n_chunks; ++c) {
    size_t len = std::min(deflate_util::kChunkSize,
                          raw - c * deflate_util::kChunkSize);
    bytes += VarintBytes(len) + 1 + 2 + 1 + 4;
  }
  return bytes;
}

/// Smallest payload of the 128-value miniblock codecs: per miniblock
/// `fixed` framing bytes plus at least one bit per value.
size_t MinMiniblockBytes(size_t count, size_t fixed) {
  const size_t full = count / 128;
  const size_t rest = count % 128;
  return full * (fixed + 16) +
         (rest > 0 ? fixed + bit_util::RoundUpToBytes(rest) : 0);
}

}  // namespace

template <>
size_t MinBlockBytes<int64_t>(EncodingType type, size_t n) {
  const size_t h = HeaderBytes(n);
  const size_t bit_per_value = bit_util::RoundUpToBytes(n);
  switch (type) {
    case EncodingType::kTrivial:
      return h + 8 * n;
    case EncodingType::kVarint:
    case EncodingType::kZigZag:
      return h + n;
    case EncodingType::kFixedBitWidth:
      return h + 1 + bit_per_value;
    case EncodingType::kForDelta:
      return n == 0 ? h : h + 2 + bit_per_value;
    case EncodingType::kDelta:
      // First value, then the deltas as a child block.
      return n == 0 ? h : h + 1 + (n > 1 ? MinIntChildBytes(n - 1) : 0);
    case EncodingType::kConstant:
      return n == 0 ? h : h + 1;
    case EncodingType::kMainlyConstant:
      return n == 0 ? h : h + 2;
    case EncodingType::kRle:
      // Run values and run lengths children; a non-empty stream has a run.
      return h + 2 * MinIntChildBytes(n == 0 ? 0 : 1);
    case EncodingType::kDictionary:
      // Mask flag, entry count, entries child (at least one entry when
      // non-empty), codes child.
      return h + 2 + MinIntChildBytes(n == 0 ? 0 : 1) + MinIntChildBytes(n);
    case EncodingType::kHuffman:
      // Alphabet size; then at least one symbol (value + code length),
      // the bit count, and one bit per value.
      return n == 0 ? h + 1 : h + 3 + VarintBytes(n) + bit_per_value;
    case EncodingType::kFastPFor:
      return h + MinMiniblockBytes(n, 3);  // base, width, exception count
    case EncodingType::kFastBP128:
      return h + MinMiniblockBytes(n, 2);  // base, width
    case EncodingType::kBitShuffle:
      return h + MinDeflateBytes(64 * bit_per_value);
    case EncodingType::kChunked:
      return h + MinDeflateBytes(8 * n);
    default:
      return h;
  }
}

template <>
size_t MinBlockBytes<double>(EncodingType type, size_t n) {
  const size_t h = HeaderBytes(n);
  switch (type) {
    case EncodingType::kTrivial:
      return h + 8 * n;
    case EncodingType::kGorilla:
    case EncodingType::kChimp: {
      // Bit count, the first value raw, then at least one (Gorilla) or
      // two (Chimp) bits per further value.
      if (n == 0) return h + 1;
      const size_t per_value = type == EncodingType::kGorilla ? 1 : 2;
      const size_t bits = 64 + per_value * (n - 1);
      return h + VarintBytes(bits) + bit_util::RoundUpToBytes(bits);
    }
    case EncodingType::kPseudodecimal:
      return h + 2 * n;  // control byte + at least one mantissa byte
    case EncodingType::kAlp:
      return h + 2 + MinIntChildBytes(n);  // exponent, exception count
    case EncodingType::kBitShuffle:
      return h + MinDeflateBytes(64 * bit_util::RoundUpToBytes(n));
    case EncodingType::kChunked:
      return h + MinDeflateBytes(8 * n);
    default:
      return h;
  }
}

template <>
size_t MinBlockBytes<std::string>(EncodingType type, size_t n) {
  const size_t h = HeaderBytes(n);
  switch (type) {
    case EncodingType::kStringTrivial:
      return h + MinIntChildBytes(n);  // lengths child
    case EncodingType::kStringDict:
      // Entry count, entry-lengths child, codes child.
      return h + 1 + MinIntChildBytes(n == 0 ? 0 : 1) + MinIntChildBytes(n);
    case EncodingType::kFsst:
      // Symbol count, lengths child, encoded byte count.
      return h + 2 + MinIntChildBytes(n);
    case EncodingType::kChunked:
      // Lengths child, then a deflate stream that may be empty.
      return h + MinIntChildBytes(n) + MinDeflateBytes(0);
    default:
      return h;
  }
}

template <>
size_t MinBlockBytes<uint8_t>(EncodingType type, size_t n) {
  const size_t h = HeaderBytes(n);
  switch (type) {
    case EncodingType::kTrivial:
      return h + bit_util::RoundUpToBytes(n);
    case EncodingType::kSparseBool:
    case EncodingType::kRoaring:
      return h + 1;  // set-bit or container count
    case EncodingType::kBoolRle:
      return h + 1 + MinIntChildBytes(n == 0 ? 0 : 1);  // first value, runs
    default:
      return h;
  }
}

IntBlockSizer::IntBlockSizer(std::span<const int64_t> values)
    : count_(values.size()) {
  if (values.empty()) return;
  min_ = max_ = values[0];
  for (size_t off = 0; off < values.size(); off += 128) {
    const size_t len = std::min<size_t>(128, values.size() - off);
    int64_t bmin = values[off];
    int64_t bmax = values[off];
    for (size_t i = off; i < off + len; ++i) {
      const int64_t x = values[i];
      bmin = std::min(bmin, x);
      bmax = std::max(bmax, x);
      varint_bytes_ += VarintBytes(static_cast<uint64_t>(x));
      zigzag_bytes_ += VarintBytes(varint::ZigZagEncode(x));
    }
    const uint64_t range =
        static_cast<uint64_t>(bmax) - static_cast<uint64_t>(bmin);
    bp128_bytes_ += VarintBytes(varint::ZigZagEncode(bmin)) + 1 +
                    bit_util::RoundUpToBytes(
                        len * static_cast<size_t>(
                                  std::max(1, bit_util::BitWidth(range))));
    min_ = std::min(min_, bmin);
    max_ = std::max(max_, bmax);
  }
}

std::optional<size_t> IntBlockSizer::BlockBytes(EncodingType t) const {
  const size_t n = count_;
  const size_t h = HeaderBytes(n);
  // Bytes of `n` values bit-packed at the width of `max_value` (>= 1).
  auto packed = [n](uint64_t max_value) {
    return bit_util::RoundUpToBytes(
        n * static_cast<size_t>(std::max(1, bit_util::BitWidth(max_value))));
  };
  const bool negative = n > 0 && min_ < 0;
  switch (t) {
    case EncodingType::kTrivial:
      return h + 8 * n;
    case EncodingType::kConstant:
      if (n == 0) return h;
      if (min_ != max_) return std::nullopt;
      return h + VarintBytes(varint::ZigZagEncode(min_));
    case EncodingType::kFixedBitWidth:
      if (negative) return std::nullopt;
      return h + 1 + packed(static_cast<uint64_t>(max_));
    case EncodingType::kVarint:
      if (negative) return std::nullopt;
      return h + varint_bytes_;
    case EncodingType::kZigZag:
      return h + zigzag_bytes_;
    case EncodingType::kForDelta:
      if (n == 0) return h;
      return h + VarintBytes(varint::ZigZagEncode(min_)) + 1 +
             packed(static_cast<uint64_t>(max_) - static_cast<uint64_t>(min_));
    case EncodingType::kFastBP128:
      return h + bp128_bytes_;
    default:
      return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Forced block encoders (header + payload).
// ---------------------------------------------------------------------------

Status EncodeIntBlockAs(EncodingType type, std::span<const int64_t> values,
                        CascadeContext* ctx, BufferBuilder* out) {
  WriteBlockHeader(type, values.size(), out);
  switch (type) {
    case EncodingType::kTrivial:
      return intcodec::EncodeTrivial(values, out);
    case EncodingType::kVarint:
      return intcodec::EncodeVarint(values, out);
    case EncodingType::kZigZag:
      return intcodec::EncodeZigZag(values, out);
    case EncodingType::kFixedBitWidth:
      return intcodec::EncodeFixedBitWidth(values, out);
    case EncodingType::kForDelta:
      return intcodec::EncodeForDelta(values, out);
    case EncodingType::kDelta:
      return intcodec::EncodeDelta(values, ctx, out);
    case EncodingType::kConstant:
      return intcodec::EncodeConstant(values, out);
    case EncodingType::kMainlyConstant:
      return intcodec::EncodeMainlyConstant(values, ctx, out);
    case EncodingType::kRle:
      return intcodec::EncodeRle(values, ctx, out);
    case EncodingType::kDictionary:
      return intcodec::EncodeDictionary(values, ctx,
                                        /*reserve_mask_entry=*/false, out);
    case EncodingType::kHuffman:
      return intcodec::EncodeHuffman(values, out);
    case EncodingType::kFastPFor:
      return intcodec::EncodeFastPFor(values, out);
    case EncodingType::kFastBP128:
      return intcodec::EncodeFastBP128(values, out);
    case EncodingType::kBitShuffle:
      return intcodec::EncodeBitShuffle(values, out);
    case EncodingType::kChunked:
      return intcodec::EncodeChunked(values, out);
    default:
      return Status::InvalidArgument(
          "encoding not available in int domain: " +
          std::string(EncodingTypeName(type)));
  }
}

namespace {

/// Payload dispatch shared by every int block entry point: decodes
/// exactly `n` values into out[0..n) through the block decoders.
/// Sentinel/Nullable also produce validity and keep vector-based
/// decoders; they pass through a temp here (rare at this layer).
Status DecodeIntPayloadInto(EncodingType type, SliceReader* in, size_t n,
                            int64_t* out) {
  switch (type) {
    case EncodingType::kTrivial:
      return intcodec::DecodeTrivialInto(in, n, out);
    case EncodingType::kVarint:
      return intcodec::DecodeVarintInto(in, n, out);
    case EncodingType::kZigZag:
      return intcodec::DecodeZigZagInto(in, n, out);
    case EncodingType::kFixedBitWidth:
      return intcodec::DecodeFixedBitWidthInto(in, n, out);
    case EncodingType::kForDelta:
      return intcodec::DecodeForDeltaInto(in, n, out);
    case EncodingType::kDelta:
      return intcodec::DecodeDeltaInto(in, n, out);
    case EncodingType::kConstant:
      return intcodec::DecodeConstantInto(in, n, out);
    case EncodingType::kMainlyConstant:
      return intcodec::DecodeMainlyConstantInto(in, n, out);
    case EncodingType::kRle:
      return intcodec::DecodeRleInto(in, n, out);
    case EncodingType::kDictionary:
      return intcodec::DecodeDictionaryInto(in, n, out);
    case EncodingType::kHuffman:
      return intcodec::DecodeHuffmanInto(in, n, out);
    case EncodingType::kFastPFor:
      return intcodec::DecodeFastPForInto(in, n, out);
    case EncodingType::kFastBP128:
      return intcodec::DecodeFastBP128Into(in, n, out);
    case EncodingType::kBitShuffle:
      return intcodec::DecodeBitShuffleInto(in, n, out);
    case EncodingType::kChunked:
      return intcodec::DecodeChunkedInto(in, n, out);
    case EncodingType::kSentinel: {
      std::vector<int64_t> tmp;
      BULLION_RETURN_NOT_OK(intcodec::DecodeSentinel(in, n, &tmp, nullptr));
      std::copy(tmp.begin(), tmp.end(), out);
      return Status::OK();
    }
    case EncodingType::kNullable: {
      std::vector<int64_t> tmp;
      BULLION_RETURN_NOT_OK(
          intcodec::DecodeNullable(in, n, /*null_fill=*/0, &tmp, nullptr));
      std::copy(tmp.begin(), tmp.end(), out);
      return Status::OK();
    }
    default:
      return Status::Corruption("unexpected encoding in int block: " +
                                std::string(EncodingTypeName(type)));
  }
}

}  // namespace

Status DecodeIntBlock(SliceReader* in, std::vector<int64_t>* out) {
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(in));
  out->resize(header.count);
  return DecodeIntPayloadInto(header.type, in, header.count, out->data());
}

Status DecodeIntBlockInto(SliceReader* in, std::span<int64_t> out) {
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(in));
  if (header.count != out.size()) {
    return Status::Corruption("int block count mismatch with destination");
  }
  return DecodeIntPayloadInto(header.type, in, out.size(), out.data());
}

Status DecodeIntBlockAppend(SliceReader* in, std::vector<int64_t>* out) {
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(in));
  size_t old_size = out->size();
  out->resize(old_size + header.count);
  return DecodeIntPayloadInto(header.type, in, header.count,
                              out->data() + old_size);
}

Status EncodeDoubleBlockAs(EncodingType type, std::span<const double> values,
                           CascadeContext* ctx, BufferBuilder* out) {
  WriteBlockHeader(type, values.size(), out);
  switch (type) {
    case EncodingType::kTrivial:
      return floatcodec::EncodeTrivial(values, out);
    case EncodingType::kGorilla:
      return floatcodec::EncodeGorilla(values, out);
    case EncodingType::kChimp:
      return floatcodec::EncodeChimp(values, out);
    case EncodingType::kPseudodecimal:
      return floatcodec::EncodePseudodecimal(values, out);
    case EncodingType::kAlp:
      return floatcodec::EncodeAlp(values, ctx, out);
    case EncodingType::kChunked:
      return floatcodec::EncodeChunked(values, out);
    case EncodingType::kBitShuffle:
      return floatcodec::EncodeBitShuffle(values, out);
    default:
      return Status::InvalidArgument(
          "encoding not available in double domain: " +
          std::string(EncodingTypeName(type)));
  }
}

namespace {

Status DecodeDoublePayloadInto(EncodingType type, SliceReader* in, size_t n,
                               double* out) {
  switch (type) {
    case EncodingType::kTrivial:
      return floatcodec::DecodeTrivialInto(in, n, out);
    case EncodingType::kGorilla:
      return floatcodec::DecodeGorillaInto(in, n, out);
    case EncodingType::kChimp:
      return floatcodec::DecodeChimpInto(in, n, out);
    case EncodingType::kPseudodecimal:
      return floatcodec::DecodePseudodecimalInto(in, n, out);
    case EncodingType::kAlp:
      return floatcodec::DecodeAlpInto(in, n, out);
    case EncodingType::kChunked:
      return floatcodec::DecodeChunkedInto(in, n, out);
    case EncodingType::kBitShuffle:
      return floatcodec::DecodeBitShuffleInto(in, n, out);
    default:
      return Status::Corruption("unexpected encoding in double block: " +
                                std::string(EncodingTypeName(type)));
  }
}

}  // namespace

Status DecodeDoubleBlock(SliceReader* in, std::vector<double>* out) {
  out->clear();
  return DecodeDoubleBlockAppend(in, out);
}

Status DecodeDoubleBlockAppend(SliceReader* in, std::vector<double>* out) {
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(in));
  size_t old_size = out->size();
  out->resize(old_size + header.count);
  return DecodeDoublePayloadInto(header.type, in, header.count,
                                 out->data() + old_size);
}

Status EncodeStringBlockAs(EncodingType type,
                           std::span<const std::string> values,
                           CascadeContext* ctx, BufferBuilder* out) {
  WriteBlockHeader(type, values.size(), out);
  switch (type) {
    case EncodingType::kStringTrivial:
      return stringcodec::EncodeTrivial(values, ctx, out);
    case EncodingType::kStringDict:
      return stringcodec::EncodeDict(values, ctx, out);
    case EncodingType::kFsst:
      return stringcodec::EncodeFsst(values, ctx, out);
    case EncodingType::kChunked:
      return stringcodec::EncodeChunked(values, ctx, out);
    default:
      return Status::InvalidArgument(
          "encoding not available in string domain: " +
          std::string(EncodingTypeName(type)));
  }
}

Status DecodeStringBlock(SliceReader* in, std::vector<std::string>* out) {
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(in));
  size_t n = header.count;
  switch (header.type) {
    case EncodingType::kStringTrivial:
      return stringcodec::DecodeTrivial(in, n, out);
    case EncodingType::kStringDict:
      return stringcodec::DecodeDict(in, n, out);
    case EncodingType::kFsst:
      return stringcodec::DecodeFsst(in, n, out);
    case EncodingType::kChunked:
      return stringcodec::DecodeChunked(in, n, out);
    default:
      return Status::Corruption("unexpected encoding in string block: " +
                                std::string(EncodingTypeName(header.type)));
  }
}

Status EncodeBoolBlockAs(EncodingType type, std::span<const uint8_t> values,
                         CascadeContext* ctx, BufferBuilder* out) {
  WriteBlockHeader(type, values.size(), out);
  switch (type) {
    case EncodingType::kTrivial:
      return boolcodec::EncodeTrivial(values, out);
    case EncodingType::kSparseBool:
      return boolcodec::EncodeSparse(values, out);
    case EncodingType::kBoolRle:
      return boolcodec::EncodeRle(values, ctx, out);
    case EncodingType::kRoaring:
      return boolcodec::EncodeRoaring(values, out);
    default:
      return Status::InvalidArgument(
          "encoding not available in bool domain: " +
          std::string(EncodingTypeName(type)));
  }
}

Status DecodeBoolBlock(SliceReader* in, std::vector<uint8_t>* out) {
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(in));
  size_t n = header.count;
  switch (header.type) {
    case EncodingType::kTrivial:
      return boolcodec::DecodeTrivial(in, n, out);
    case EncodingType::kSparseBool:
      return boolcodec::DecodeSparse(in, n, out);
    case EncodingType::kBoolRle:
      return boolcodec::DecodeRle(in, n, out);
    case EncodingType::kRoaring:
      return boolcodec::DecodeRoaring(in, n, out);
    default:
      return Status::Corruption("unexpected encoding in bool block: " +
                                std::string(EncodingTypeName(header.type)));
  }
}

// ---------------------------------------------------------------------------
// Candidate generation, gated on full-data stats so a sampled winner can
// never fail on the full column.
// ---------------------------------------------------------------------------

namespace {

std::vector<EncodingType> IntCandidates(const IntStats& s,
                                        const CascadeOptions& opts) {
  std::vector<EncodingType> c;
  if (s.count == 0) return {EncodingType::kTrivial};
  if (s.distinct == 1) {
    c.push_back(EncodingType::kConstant);
  }
  if (!s.DistinctCapped() && s.distinct > 1 &&
      s.top_frequency * 10 >= s.count * 6) {
    c.push_back(EncodingType::kMainlyConstant);
  }
  if (s.run_count * 2 <= s.count) c.push_back(EncodingType::kRle);
  if (!s.DistinctCapped() && s.distinct * 2 <= s.count && s.distinct > 1) {
    c.push_back(EncodingType::kDictionary);
  }
  if (!s.DistinctCapped() && s.distinct <= intcodec::kMaxHuffmanAlphabet) {
    c.push_back(EncodingType::kHuffman);
  }
  if (s.non_negative) {
    c.push_back(EncodingType::kFixedBitWidth);
    c.push_back(EncodingType::kVarint);
  } else {
    c.push_back(EncodingType::kZigZag);
  }
  c.push_back(EncodingType::kForDelta);
  c.push_back(EncodingType::kFastBP128);
  c.push_back(EncodingType::kFastPFor);
  if (s.count >= 2 &&
      (s.sorted_non_decreasing ||
       s.mean_abs_delta * 16 <
           static_cast<double>(s.max) - static_cast<double>(s.min) ||
       s.range_bit_width > 32)) {
    c.push_back(EncodingType::kDelta);
  }
  c.push_back(EncodingType::kBitShuffle);
  if (opts.allow_chunked) c.push_back(EncodingType::kChunked);
  c.push_back(EncodingType::kTrivial);

  std::vector<EncodingType> filtered;
  for (EncodingType t : c) {
    if (opts.IsAllowed(t)) filtered.push_back(t);
  }
  if (filtered.empty()) filtered.push_back(EncodingType::kTrivial);
  return filtered;
}

std::vector<EncodingType> DoubleCandidates(const FloatStats& s,
                                           const CascadeOptions& opts) {
  std::vector<EncodingType> c;
  c.push_back(EncodingType::kGorilla);
  c.push_back(EncodingType::kChimp);
  if (s.decimal_fraction >= 0.9) c.push_back(EncodingType::kAlp);
  if (s.decimal_fraction >= 0.5) c.push_back(EncodingType::kPseudodecimal);
  c.push_back(EncodingType::kBitShuffle);
  if (opts.allow_chunked) c.push_back(EncodingType::kChunked);
  c.push_back(EncodingType::kTrivial);
  std::vector<EncodingType> filtered;
  for (EncodingType t : c) {
    if (opts.IsAllowed(t)) filtered.push_back(t);
  }
  if (filtered.empty()) filtered.push_back(EncodingType::kTrivial);
  return filtered;
}

std::vector<EncodingType> StringCandidates(const StringStats& s,
                                           const CascadeOptions& opts) {
  std::vector<EncodingType> c;
  if (!s.DistinctCapped() && s.distinct * 2 <= s.count && s.count > 0) {
    c.push_back(EncodingType::kStringDict);
  }
  if (s.avg_length >= 4.0) c.push_back(EncodingType::kFsst);
  if (opts.allow_chunked) c.push_back(EncodingType::kChunked);
  c.push_back(EncodingType::kStringTrivial);
  std::vector<EncodingType> filtered;
  for (EncodingType t : c) {
    if (opts.IsAllowed(t)) filtered.push_back(t);
  }
  if (filtered.empty()) filtered.push_back(EncodingType::kStringTrivial);
  return filtered;
}

std::vector<EncodingType> BoolCandidates(const BoolStats& s,
                                         const CascadeOptions& opts) {
  std::vector<EncodingType> c;
  if (s.density() <= 0.2) c.push_back(EncodingType::kSparseBool);
  if (s.run_count * 4 <= s.count) c.push_back(EncodingType::kBoolRle);
  c.push_back(EncodingType::kRoaring);
  c.push_back(EncodingType::kTrivial);
  std::vector<EncodingType> filtered;
  for (EncodingType t : c) {
    if (opts.IsAllowed(t)) filtered.push_back(t);
  }
  if (filtered.empty()) filtered.push_back(EncodingType::kTrivial);
  return filtered;
}

/// Outcome of selection. `block` holds the winner's trial bytes when
/// the sample was the whole input: they are then the final block.
struct Selection {
  SelectionDecision decision;
  std::optional<BufferBuilder> block;
};

/// Returns the argmin-cost candidate on the sample, breaking cost ties
/// by list position (earliest wins). `price(type, sample)` returns the
/// exact block size of a formula-priced candidate, or nullopt to
/// trial-encode it with `encode(type, sample, &builder)`. A trial is
/// skipped when even MinBlockBytes could not beat the best so far; that
/// bound is sound because the cost never falls as the size grows
/// (w_size >= 0). Selection is the same as trial-encoding every
/// candidate in list order.
template <typename T, typename PriceFn, typename EncodeFn>
Result<Selection> SelectBest(std::span<const T> full,
                             const std::vector<EncodingType>& cands,
                             const CascadeOptions& opts, PriceFn&& price,
                             EncodeFn&& encode) {
  std::vector<T> sample_storage;
  std::span<const T> sample =
      SampleChunks(full, opts.sample_values, &sample_storage);
  const bool whole = sample.size() == full.size();
  double scale = sample.empty()
                     ? 1.0
                     : static_cast<double>(full.size()) /
                           static_cast<double>(sample.size());
  auto cost_of = [&](EncodingType t, size_t sample_bytes) {
    size_t est = static_cast<size_t>(static_cast<double>(sample_bytes) * scale);
    return ScoreCost(opts, t, est, full.size());
  };

  Selection best{{EncodingType::kTrivial,
                  std::numeric_limits<double>::infinity(), 0},
                 std::nullopt};
  size_t best_pos = 0;
  bool found = false;
  auto beats_best = [&](double cost, size_t pos) {
    return cost < best.decision.cost ||
           (found && cost == best.decision.cost && pos < best_pos);
  };
  auto take = [&](size_t pos, size_t sample_bytes,
                  std::optional<BufferBuilder> block) {
    best = Selection{{cands[pos], cost_of(cands[pos], sample_bytes),
                      sample_bytes},
                     std::move(block)};
    best_pos = pos;
    found = true;
  };

  std::vector<bool> priced(cands.size(), false);
  for (size_t i = 0; i < cands.size(); ++i) {
    std::optional<size_t> bytes = price(cands[i], sample);
    if (!bytes) continue;
    priced[i] = true;
    if (beats_best(cost_of(cands[i], *bytes), i)) take(i, *bytes, std::nullopt);
  }
  const bool can_skip = opts.w_size >= 0;
  for (size_t i = 0; i < cands.size(); ++i) {
    if (priced[i]) continue;
    EncodingType t = cands[i];
    if (can_skip && found &&
        !beats_best(cost_of(t, MinBlockBytes<T>(t, sample.size())), i)) {
      continue;
    }
    BufferBuilder trial;
    if (!encode(t, sample, &trial).ok()) continue;  // ineligible on this data
    if (beats_best(cost_of(t, trial.size()), i)) {
      size_t bytes = trial.size();
      take(i, bytes, whole ? std::optional<BufferBuilder>(std::move(trial))
                           : std::nullopt);
    }
  }
  if (!found) {
    return Status::Unknown("no eligible encoding candidate");
  }
  return best;
}

// Price functions for SelectBest. Ints price the IntBlockSizer formulas
// (built once, on the sample SelectBest takes) and doubles price raw
// 8-byte values; every other candidate is trial-encoded.

struct IntPricer {
  std::optional<IntBlockSizer> sizer;
  std::optional<size_t> operator()(EncodingType t,
                                   std::span<const int64_t> sample) {
    if (!sizer) sizer.emplace(sample);
    return sizer->BlockBytes(t);
  }
};

std::optional<size_t> PriceDouble(EncodingType t,
                                  std::span<const double> sample) {
  if (t != EncodingType::kTrivial) return std::nullopt;
  return MinBlockBytes<double>(t, sample.size());  // exact for raw values
}

template <typename T>
std::optional<size_t> TrialOnly(EncodingType, std::span<const T>) {
  return std::nullopt;
}

/// Selects an encoding for `values` and appends its block to `out`,
/// with children at `child_depth`. Reuses the winning trial's bytes
/// when they cover the whole input; otherwise encodes the winner once.
template <typename T, typename PriceFn>
Result<SelectionDecision> SelectAndEncode(
    std::span<const T> values, const std::vector<EncodingType>& cands,
    const CascadeOptions& opts, int child_depth, PriceFn&& price,
    Status (*encode_as)(EncodingType, std::span<const T>, CascadeContext*,
                        BufferBuilder*),
    BufferBuilder* out) {
  BULLION_ASSIGN_OR_RETURN(
      Selection sel,
      SelectBest<T>(values, cands, opts, std::forward<PriceFn>(price),
                    [&](EncodingType t, std::span<const T> s,
                        BufferBuilder* b) {
                      CascadeContext trial_ctx(opts, child_depth);
                      return encode_as(t, s, &trial_ctx, b);
                    }));
  if (!sel.block) {
    CascadeContext child(opts, child_depth);
    BULLION_RETURN_NOT_OK(encode_as(sel.decision.chosen, values, &child, out));
  } else if (out->size() == 0) {
    *out = std::move(*sel.block);
  } else {
    out->AppendSlice(sel.block->AsSlice());
  }
  return sel.decision;
}

}  // namespace

// ---------------------------------------------------------------------------
// CascadeContext children.
// ---------------------------------------------------------------------------

Status CascadeContext::EncodeIntChild(std::span<const int64_t> values,
                                      BufferBuilder* out) {
  if (AtDepthLimit()) {
    // Cheap fallback at the recursion floor. When the caller pinned a
    // single allowed encoding (deletable pages need deterministic,
    // deletion-monotone children), honor it; otherwise FOR-delta, which
    // is always applicable and never expands much. A pinned encoding
    // with child streams would recurse below the floor forever, so it
    // gets FOR-delta too.
    EncodingType leaf_type = EncodingType::kForDelta;
    if (options_.allowed.size() == 1 &&
        !IntEncodingHasChildren(options_.allowed[0])) {
      leaf_type = options_.allowed[0];
    }
    CascadeContext leaf(options_, depth_ + 1);
    return EncodeIntBlockAs(leaf_type, values, &leaf, out);
  }
  IntStats stats = ComputeIntStats(values);
  return SelectAndEncode<int64_t>(values, IntCandidates(stats, options_),
                                  options_, depth_ + 1, IntPricer{},
                                  &EncodeIntBlockAs, out)
      .status();
}

Status CascadeContext::EncodeBoolChild(std::span<const uint8_t> values,
                                       BufferBuilder* out) {
  if (AtDepthLimit()) {
    CascadeContext leaf(options_, depth_ + 1);
    return EncodeBoolBlockAs(EncodingType::kTrivial, values, &leaf, out);
  }
  BoolStats stats = ComputeBoolStats(values);
  return SelectAndEncode<uint8_t>(values, BoolCandidates(stats, options_),
                                  options_, depth_ + 1, TrialOnly<uint8_t>,
                                  &EncodeBoolBlockAs, out)
      .status();
}

// ---------------------------------------------------------------------------
// Public cascade entry points.
// ---------------------------------------------------------------------------

Result<Buffer> EncodeInt64ColumnWithDecision(std::span<const int64_t> values,
                                             const CascadeOptions& options,
                                             SelectionDecision* decision) {
  IntStats stats = ComputeIntStats(values);
  BufferBuilder out;
  BULLION_ASSIGN_OR_RETURN(
      SelectionDecision best,
      SelectAndEncode<int64_t>(values, IntCandidates(stats, options), options,
                               1, IntPricer{}, &EncodeIntBlockAs, &out));
  if (decision != nullptr) *decision = best;
  return out.Finish();
}

Result<Buffer> EncodeInt64Column(std::span<const int64_t> values,
                                 const CascadeOptions& options) {
  return EncodeInt64ColumnWithDecision(values, options, nullptr);
}

Status DecodeInt64Column(Slice block, std::vector<int64_t>* out) {
  SliceReader reader(block);
  return DecodeIntBlock(&reader, out);
}

Result<Buffer> EncodeDoubleColumn(std::span<const double> values,
                                  const CascadeOptions& options) {
  std::vector<double> sample_storage;
  FloatStats stats = ComputeFloatStats(
      SampleChunks(values, options.sample_values, &sample_storage));
  BufferBuilder out;
  BULLION_RETURN_NOT_OK(
      SelectAndEncode<double>(values, DoubleCandidates(stats, options),
                              options, 1, PriceDouble, &EncodeDoubleBlockAs,
                              &out)
          .status());
  return out.Finish();
}

Status DecodeDoubleColumn(Slice block, std::vector<double>* out) {
  SliceReader reader(block);
  return DecodeDoubleBlock(&reader, out);
}

Result<Buffer> EncodeStringColumn(std::span<const std::string> values,
                                  const CascadeOptions& options) {
  StringStats stats = ComputeStringStats(values);
  BufferBuilder out;
  BULLION_RETURN_NOT_OK(
      SelectAndEncode<std::string>(values, StringCandidates(stats, options),
                                   options, 1, TrialOnly<std::string>,
                                   &EncodeStringBlockAs, &out)
          .status());
  return out.Finish();
}

Status DecodeStringColumn(Slice block, std::vector<std::string>* out) {
  SliceReader reader(block);
  return DecodeStringBlock(&reader, out);
}

Result<Buffer> EncodeBoolColumn(std::span<const uint8_t> values,
                                const CascadeOptions& options) {
  BoolStats stats = ComputeBoolStats(values);
  BufferBuilder out;
  BULLION_RETURN_NOT_OK(
      SelectAndEncode<uint8_t>(values, BoolCandidates(stats, options), options,
                               1, TrialOnly<uint8_t>, &EncodeBoolBlockAs,
                               &out)
          .status());
  return out.Finish();
}

Status DecodeBoolColumn(Slice block, std::vector<uint8_t>* out) {
  SliceReader reader(block);
  return DecodeBoolBlock(&reader, out);
}

Result<Buffer> EncodeNullableInt64Column(std::span<const int64_t> values,
                                         std::span<const uint8_t> validity,
                                         const CascadeOptions& options) {
  BufferBuilder out;
  WriteBlockHeader(EncodingType::kNullable, values.size(), &out);
  CascadeContext ctx(options, 0);
  BULLION_RETURN_NOT_OK(intcodec::EncodeNullable(values, validity, &ctx, &out));
  return out.Finish();
}

Status DecodeNullableInt64Column(Slice block, int64_t null_fill,
                                 std::vector<int64_t>* values,
                                 std::vector<uint8_t>* validity) {
  SliceReader reader(block);
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(&reader));
  if (header.type != EncodingType::kNullable) {
    return Status::Corruption("expected nullable block");
  }
  return intcodec::DecodeNullable(&reader, header.count, null_fill, values,
                                  validity);
}

Result<EncodingType> PeekEncodingType(Slice block) {
  SliceReader reader(block);
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(&reader));
  return header.type;
}

}  // namespace bullion
