#include "common/bit_util.h"

#include <algorithm>
#include <cstring>

#include "encoding/block_codec.h"

namespace bullion {
namespace bit_util {

void PackBits(const uint64_t* values, size_t n, int width,
              std::vector<uint8_t>* out) {
  out->assign(RoundUpToBytes(n * static_cast<size_t>(width)), 0);
  blockcodec::ActiveKernels().pack_bits(values, n, width, out->data());
}

void UnpackBits(Slice data, size_t n, int width, std::vector<uint64_t>* out) {
  out->resize(n);
  blockcodec::ActiveKernels().unpack_bits(data.data(), data.size(), n, width,
                                          out->data());
}

namespace {

/// Transposes the 8x8 bit matrix whose bit 8r+c is element (r, c).
uint64_t Transpose8x8(uint64_t x) {
  uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x ^= t ^ (t << 28);
  return x;
}

}  // namespace

void BitPlanes(const void* words, size_t n, std::vector<uint8_t>* planes) {
  const size_t plane_bytes = RoundUpToBytes(n);
  planes->assign(plane_bytes * 64, 0);
  const auto* src = static_cast<const uint8_t*>(words);
  // Eight words at a time: byte k of the eight words is an 8x8 bit
  // matrix whose transpose is byte g of planes 8k..8k+7.
  for (size_t g = 0; g < plane_bytes; ++g) {
    uint8_t group[64] = {};
    std::memcpy(group, src + 64 * g, 8 * std::min<size_t>(8, n - 8 * g));
    for (size_t k = 0; k < 8; ++k) {
      uint64_t m = 0;
      for (size_t j = 0; j < 8; ++j) {
        m |= static_cast<uint64_t>(group[8 * j + k]) << (8 * j);
      }
      m = Transpose8x8(m);
      for (size_t t = 0; t < 8; ++t) {
        (*planes)[(8 * k + t) * plane_bytes + g] =
            static_cast<uint8_t>(m >> (8 * t));
      }
    }
  }
}

void WordsFromPlanes(const uint8_t* planes, size_t n, void* words) {
  const size_t plane_bytes = RoundUpToBytes(n);
  auto* dst = static_cast<uint8_t*>(words);
  // The transpose is its own inverse: byte g of planes 8k..8k+7 is an
  // 8x8 bit matrix whose transpose is byte k of words 8g..8g+7.
  for (size_t g = 0; g < plane_bytes; ++g) {
    uint8_t group[64];
    for (size_t k = 0; k < 8; ++k) {
      const uint8_t* p = planes + 8 * k * plane_bytes + g;
      uint64_t m = 0;
      for (size_t t = 0; t < 8; ++t) {
        m |= static_cast<uint64_t>(p[t * plane_bytes]) << (8 * t);
      }
      m = Transpose8x8(m);
      for (size_t j = 0; j < 8; ++j) {
        group[8 * j + k] = static_cast<uint8_t>(m >> (8 * j));
      }
    }
    std::memcpy(dst + 64 * g, group, 8 * std::min<size_t>(8, n - 8 * g));
  }
}

uint64_t GetPacked(Slice data, size_t idx, int width) {
  size_t bit_pos = idx * static_cast<size_t>(width);
  uint64_t v = 0;
  for (int b = 0; b < width; ++b) {
    uint64_t bit = (data[bit_pos >> 3] >> (bit_pos & 7)) & 1;
    v |= bit << b;
    ++bit_pos;
  }
  return v;
}

void SetPacked(uint8_t* data, size_t idx, int width, uint64_t value) {
  size_t bit_pos = idx * static_cast<size_t>(width);
  for (int b = 0; b < width; ++b) {
    uint8_t mask = static_cast<uint8_t>(1u << (bit_pos & 7));
    if ((value >> b) & 1) {
      data[bit_pos >> 3] |= mask;
    } else {
      data[bit_pos >> 3] &= static_cast<uint8_t>(~mask);
    }
    ++bit_pos;
  }
}

}  // namespace bit_util
}  // namespace bullion
