// Bit-level utilities: bit width computation, bit-packed read/write
// streams, and byte-aligned packing kernels used by FixedBitWidth,
// FOR-delta, and the deletion masking paths.

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/buffer.h"
#include "common/slice.h"

namespace bullion {
namespace bit_util {

/// Number of bits required to represent `v` (0 needs 0 bits).
inline int BitWidth(uint64_t v) {
  return v == 0 ? 0 : 64 - std::countl_zero(v);
}

/// Rounds up to the next multiple of 8.
inline size_t RoundUpToBytes(size_t bits) { return (bits + 7) / 8; }

inline uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

}  // namespace bit_util

/// \brief Appends values of a fixed bit width to a byte buffer, LSB
/// first within each byte.
class BitWriter {
 public:
  BitWriter() : bit_pos_(0) {}

  /// Appends the low `bits` (0..64) bits of `value`, a byte at a time:
  /// the first byte is OR-ed into the partial tail, the rest are new.
  void Write(uint64_t value, int bits) {
    if (bits <= 0) return;
    if (bits < 64) value &= (uint64_t{1} << bits) - 1;
    const int offset = static_cast<int>(bit_pos_ & 7);
    bytes_.resize((bit_pos_ + static_cast<size_t>(bits) + 7) >> 3, 0);
    uint8_t* p = bytes_.data() + (bit_pos_ >> 3);
    *p |= static_cast<uint8_t>(value << offset);
    for (int done = 8 - offset; done < bits; done += 8) {
      *++p = static_cast<uint8_t>(value >> done);
    }
    bit_pos_ += static_cast<size_t>(bits);
  }

  /// Appends a single bit.
  void WriteBit(bool bit) { Write(bit ? 1 : 0, 1); }

  size_t bit_count() const { return bit_pos_; }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> Finish() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
  size_t bit_pos_;
};

/// \brief Reads fixed-bit-width values from a byte buffer written by
/// BitWriter (LSB-first bit order).
class BitReader {
 public:
  explicit BitReader(Slice data) : data_(data), bit_pos_(0) {}

  /// Reads the next `bits` bits as an unsigned value.
  uint64_t Read(int bits) {
    uint64_t value = 0;
    for (int i = 0; i < bits; ++i) {
      size_t byte = bit_pos_ >> 3;
      uint64_t bit = (data_[byte] >> (bit_pos_ & 7)) & 1;
      value |= bit << i;
      ++bit_pos_;
    }
    return value;
  }

  bool ReadBit() { return Read(1) != 0; }

  /// Positions the cursor at an absolute bit offset (random access for
  /// fixed-width layouts).
  void SeekBit(size_t bit) { bit_pos_ = bit; }
  size_t bit_position() const { return bit_pos_; }

 private:
  Slice data_;
  size_t bit_pos_;
};

namespace bit_util {

/// Packs `n` values at `width` bits each (LSB-first) into out.
void PackBits(const uint64_t* values, size_t n, int width,
              std::vector<uint8_t>* out);

/// Unpacks `n` values of `width` bits each from `data`.
void UnpackBits(Slice data, size_t n, int width, std::vector<uint64_t>* out);

/// Bit-plane transpose of `n` 8-byte words at `words` (any alignment):
/// plane b, of RoundUpToBytes(n) bytes, holds bit b of every word,
/// LSB-first. `planes` receives 64 such planes, plane 0 first.
void BitPlanes(const void* words, size_t n, std::vector<uint8_t>* planes);

/// Inverse of BitPlanes: rebuilds `n` 8-byte words at `words` (any
/// alignment) from the 64 planes of RoundUpToBytes(n) bytes each at
/// `planes`. Plane bits past `n` are ignored.
void WordsFromPlanes(const uint8_t* planes, size_t n, void* words);

/// Reads the value at index `idx` from a fixed-width packed buffer
/// without decoding the rest (random access, used for in-place delete).
uint64_t GetPacked(Slice data, size_t idx, int width);

/// Overwrites the value at index `idx` in a fixed-width packed buffer
/// in place (used for deletion masking).
void SetPacked(uint8_t* data, size_t idx, int width, uint64_t value);

}  // namespace bit_util
}  // namespace bullion
