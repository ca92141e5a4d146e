// XOR-based float compression: Gorilla and a Chimp-style variant.

#include <bit>
#include <cstring>

#include "common/bit_util.h"
#include "common/varint.h"
#include "encoding/float_codecs.h"

namespace bullion {
namespace floatcodec {

namespace {

uint64_t DoubleBits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, 8);
  return u;
}

double BitsToDouble(uint64_t u) {
  double d;
  std::memcpy(&d, &u, 8);
  return d;
}

}  // namespace

// Gorilla layout per value (after the first, stored raw):
//   '0'                          -> XOR == 0 (same value)
//   '10' + sig bits              -> XOR fits the previous window
//   '11' + 5b leading + 6b len + sig bits -> new window
Status EncodeGorilla(std::span<const double> v, BufferBuilder* out) {
  BitWriter bw;
  uint64_t prev = 0;
  int prev_leading = -1;
  int prev_sig_len = -1;
  for (size_t i = 0; i < v.size(); ++i) {
    uint64_t bits = DoubleBits(v[i]);
    if (i == 0) {
      bw.Write(bits, 64);
      prev = bits;
      continue;
    }
    uint64_t x = bits ^ prev;
    prev = bits;
    if (x == 0) {
      bw.WriteBit(false);
      continue;
    }
    int leading = std::countl_zero(x);
    int trailing = std::countr_zero(x);
    if (leading > 31) leading = 31;  // 5-bit field
    int sig_len = 64 - leading - trailing;
    if (prev_leading >= 0 && leading >= prev_leading &&
        trailing >= 64 - prev_leading - prev_sig_len) {
      // Fits previous window.
      bw.WriteBit(true);
      bw.WriteBit(false);
      int prev_trailing = 64 - prev_leading - prev_sig_len;
      bw.Write(x >> prev_trailing, prev_sig_len);
    } else {
      bw.WriteBit(true);
      bw.WriteBit(true);
      bw.Write(static_cast<uint64_t>(leading), 5);
      // 6-bit length field: 64 is encoded as 0 (sig_len is never 0 here).
      bw.Write(static_cast<uint64_t>(sig_len == 64 ? 0 : sig_len), 6);
      bw.Write(x >> trailing, sig_len);
      prev_leading = leading;
      prev_sig_len = sig_len;
    }
  }
  varint::PutVarint64(out, bw.bit_count());
  const std::vector<uint8_t>& bytes = bw.bytes();
  out->AppendBytes(bytes.data(), bytes.size());
  return Status::OK();
}

Status DecodeGorillaInto(SliceReader* in, size_t n, double* out) {
  if (n == 0) return Status::OK();
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  uint64_t bit_count;
  if (!varint::GetVarint64(rest, &pos, &bit_count)) {
    return Status::Corruption("gorilla bit count truncated");
  }
  size_t byte_count = bit_util::RoundUpToBytes(bit_count);
  if (rest.size() - pos < byte_count) {
    return Status::Corruption("gorilla bitstream truncated");
  }
  BitReader br(rest.SubSlice(pos, byte_count));
  pos += byte_count;

  uint64_t prev = br.Read(64);
  out[0] = BitsToDouble(prev);
  int win_leading = 0;
  int win_sig_len = 0;
  for (size_t i = 1; i < n; ++i) {
    if (!br.ReadBit()) {
      out[i] = BitsToDouble(prev);
      continue;
    }
    if (br.ReadBit()) {
      win_leading = static_cast<int>(br.Read(5));
      win_sig_len = static_cast<int>(br.Read(6));
      if (win_sig_len == 0) win_sig_len = 64;
    }
    int trailing = 64 - win_leading - win_sig_len;
    uint64_t sig = br.Read(win_sig_len);
    uint64_t x = sig << trailing;
    prev ^= x;
    out[i] = BitsToDouble(prev);
  }
  in->Seek(in->position() - rest.size() + pos);
  return Status::OK();
}

// Chimp-style layout: leading-zero counts quantized to 8 buckets
// (3 bits). Per value:
//   '00'                        -> XOR == 0
//   '01' + sig-to-end bits      -> reuse previous leading bucket
//   '10' + 3b bucket + sig bits -> new leading bucket, sig to end
//   '11' + 3b bucket + 6b len + sig bits -> new bucket with trailing cut
namespace {

constexpr int kChimpBuckets[8] = {0, 8, 12, 16, 18, 20, 22, 24};

int ChimpBucket(int leading) {
  int best = 0;
  for (int b = 0; b < 8; ++b) {
    if (kChimpBuckets[b] <= leading) best = b;
  }
  return best;
}

}  // namespace

Status EncodeChimp(std::span<const double> v, BufferBuilder* out) {
  BitWriter bw;
  uint64_t prev = 0;
  int prev_bucket = -1;
  for (size_t i = 0; i < v.size(); ++i) {
    uint64_t bits = DoubleBits(v[i]);
    if (i == 0) {
      bw.Write(bits, 64);
      prev = bits;
      continue;
    }
    uint64_t x = bits ^ prev;
    prev = bits;
    if (x == 0) {
      bw.Write(0b00, 2);
      continue;
    }
    int leading = std::countl_zero(x);
    int trailing = std::countr_zero(x);
    int bucket = ChimpBucket(leading);
    int bucket_leading = kChimpBuckets[bucket];
    if (trailing >= 16) {
      // Worth cutting the trailing zeros: '11' form.
      int sig_len = 64 - bucket_leading - trailing;
      bw.Write(0b11, 2);
      bw.Write(static_cast<uint64_t>(bucket), 3);
      bw.Write(static_cast<uint64_t>(sig_len == 64 ? 0 : sig_len), 6);
      bw.Write(x >> trailing, sig_len);
      prev_bucket = bucket;
    } else if (bucket == prev_bucket) {
      bw.Write(0b01, 2);
      bw.Write(x, 64 - bucket_leading);
    } else {
      bw.Write(0b10, 2);
      bw.Write(static_cast<uint64_t>(bucket), 3);
      bw.Write(x, 64 - bucket_leading);
      prev_bucket = bucket;
    }
  }
  varint::PutVarint64(out, bw.bit_count());
  const std::vector<uint8_t>& bytes = bw.bytes();
  out->AppendBytes(bytes.data(), bytes.size());
  return Status::OK();
}

Status DecodeChimpInto(SliceReader* in, size_t n, double* out) {
  if (n == 0) return Status::OK();
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  uint64_t bit_count;
  if (!varint::GetVarint64(rest, &pos, &bit_count)) {
    return Status::Corruption("chimp bit count truncated");
  }
  size_t byte_count = bit_util::RoundUpToBytes(bit_count);
  if (rest.size() - pos < byte_count) {
    return Status::Corruption("chimp bitstream truncated");
  }
  BitReader br(rest.SubSlice(pos, byte_count));
  pos += byte_count;

  uint64_t prev = br.Read(64);
  out[0] = BitsToDouble(prev);
  int bucket = 0;
  for (size_t i = 1; i < n; ++i) {
    uint64_t flag = br.Read(2);
    uint64_t x = 0;
    switch (flag) {
      case 0b00:
        break;
      case 0b01:
        x = br.Read(64 - kChimpBuckets[bucket]);
        break;
      case 0b10: {
        bucket = static_cast<int>(br.Read(3));
        x = br.Read(64 - kChimpBuckets[bucket]);
        break;
      }
      case 0b11: {
        bucket = static_cast<int>(br.Read(3));
        int sig_len = static_cast<int>(br.Read(6));
        if (sig_len == 0) sig_len = 64;
        int trailing = 64 - kChimpBuckets[bucket] - sig_len;
        x = br.Read(sig_len) << trailing;
        break;
      }
    }
    prev ^= x;
    out[i] = BitsToDouble(prev);
  }
  in->Seek(in->position() - rest.size() + pos);
  return Status::OK();
}

}  // namespace floatcodec
}  // namespace bullion
