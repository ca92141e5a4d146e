// LEB128 variable-length integers and zigzag transforms. These are the
// primitives behind Varint/ZigZag encodings and the thrift-like
// baseline metadata codec. The layout matters for deletion compliance:
// each byte keeps its MSB continuation bit, so a value can be masked
// in place by zeroing the low 7 bits of each of its bytes (see
// format/deletion.cc).

#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/buffer.h"
#include "common/slice.h"

namespace bullion {
namespace varint {

constexpr int kMaxVarint64Bytes = 10;

/// Appends the LEB128 encoding of v.
inline void PutVarint64(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

inline void PutVarint64(BufferBuilder* out, uint64_t v) {
  while (v >= 0x80) {
    out->Append<uint8_t>(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->Append<uint8_t>(static_cast<uint8_t>(v));
}

/// Number of bytes the LEB128 encoding of v occupies: one per started
/// group of 7 significant bits, and one for zero.
inline int VarintLength(uint64_t v) {
  return (64 - std::countl_zero(v | 1) + 6) / 7;
}

/// Decodes one varint starting at data[*pos]; advances *pos. Returns
/// false on truncation or overlong (>10 byte) input.
inline bool GetVarint64(Slice data, size_t* pos, uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < data.size() && shift < 70) {
    uint8_t byte = data[*pos];
    ++(*pos);
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

/// ZigZag: maps signed to unsigned so small magnitudes stay small.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace varint
}  // namespace bullion
