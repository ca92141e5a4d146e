// Unit tests for the common substrate: Status/Result, Slice/Buffer,
// bit utilities, bitmap, varint/zigzag, hashes, PRNG.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "common/bit_util.h"
#include "common/bitmap.h"
#include "common/buffer.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/varint.h"

namespace bullion {
namespace {

TEST(Status, OkIsCheapAndOk) {
  Status st = Status::OK();
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status st = Status::Corruption("bad page");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_EQ(st.message(), "bad page");
  EXPECT_EQ(st.ToString(), "Corruption: bad page");
}

TEST(Status, CopyAndMove) {
  Status a = Status::IOError("x");
  Status b = a;  // copy
  EXPECT_TRUE(b.IsIOError());
  EXPECT_TRUE(a.IsIOError());
  Status c = std::move(a);
  EXPECT_TRUE(c.IsIOError());
}

TEST(Status, ReturnNotOkMacro) {
  auto fails = []() -> Status {
    BULLION_RETURN_NOT_OK(Status::NotFound("gone"));
    return Status::OK();
  };
  EXPECT_TRUE(fails().IsNotFound());
}

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.ValueOr(7), 42);

  Result<int> err = Status::InvalidArgument("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.ValueOr(7), 7);
  EXPECT_TRUE(err.status().IsInvalidArgument());
}

TEST(Result, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::IOError("io");
    return 5;
  };
  auto outer = [&](bool fail) -> Result<int> {
    BULLION_ASSIGN_OR_RETURN(int v, inner(fail));
    return v * 2;
  };
  EXPECT_EQ(*outer(false), 10);
  EXPECT_TRUE(outer(true).status().IsIOError());
}

TEST(Slice, BasicViews) {
  std::string s = "hello world";
  Slice slice(s);
  EXPECT_EQ(slice.size(), 11u);
  EXPECT_EQ(slice.SubSlice(6, 5).ToString(), "world");
  slice.RemovePrefix(6);
  EXPECT_EQ(slice.ToString(), "world");
  EXPECT_EQ(Slice("abc", 3), Slice(std::string("abc")));
  EXPECT_NE(Slice("abc", 3), Slice("abd", 3));
  EXPECT_TRUE(Slice().empty());
}

TEST(Buffer, AppendAndBuild) {
  BufferBuilder b;
  b.Append<uint32_t>(0xAABBCCDD);
  b.Append<uint8_t>(0x11);
  b.AppendBytes("xy", 2);
  Buffer buf = b.Finish();
  ASSERT_EQ(buf.size(), 7u);
  SliceReader r(buf.AsSlice());
  EXPECT_EQ(r.Read<uint32_t>(), 0xAABBCCDDu);
  EXPECT_EQ(r.Read<uint8_t>(), 0x11);
  EXPECT_EQ(r.ReadBytes(2).ToString(), "xy");
  EXPECT_TRUE(r.AtEnd());
}

TEST(Buffer, WriteAtBackPatch) {
  BufferBuilder b;
  b.Append<uint32_t>(0);
  b.AppendBytes("data", 4);
  b.WriteAt<uint32_t>(0, 4);
  Buffer buf = b.Finish();
  SliceReader r(buf.AsSlice());
  EXPECT_EQ(r.Read<uint32_t>(), 4u);
}

TEST(BitUtil, BitWidth) {
  EXPECT_EQ(bit_util::BitWidth(0), 0);
  EXPECT_EQ(bit_util::BitWidth(1), 1);
  EXPECT_EQ(bit_util::BitWidth(2), 2);
  EXPECT_EQ(bit_util::BitWidth(255), 8);
  EXPECT_EQ(bit_util::BitWidth(256), 9);
  EXPECT_EQ(bit_util::BitWidth(~0ull), 64);
}

TEST(BitUtil, PackUnpackAllWidths) {
  Random rng(3);
  for (int width = 1; width <= 64; ++width) {
    std::vector<uint64_t> values(100);
    uint64_t mask = width == 64 ? ~0ull : ((1ull << width) - 1);
    for (auto& v : values) v = rng.Next() & mask;
    std::vector<uint8_t> packed;
    bit_util::PackBits(values.data(), values.size(), width, &packed);
    EXPECT_EQ(packed.size(), bit_util::RoundUpToBytes(100 * width));
    std::vector<uint64_t> out;
    bit_util::UnpackBits(Slice(packed.data(), packed.size()), 100, width,
                         &out);
    EXPECT_EQ(out, values) << "width " << width;
    // Random access matches.
    for (size_t i : {size_t{0}, size_t{37}, size_t{99}}) {
      EXPECT_EQ(bit_util::GetPacked(Slice(packed.data(), packed.size()), i,
                                    width),
                values[i]);
    }
    // In-place update.
    bit_util::SetPacked(packed.data(), 37, width, 0);
    EXPECT_EQ(
        bit_util::GetPacked(Slice(packed.data(), packed.size()), 37, width),
        0u);
    EXPECT_EQ(
        bit_util::GetPacked(Slice(packed.data(), packed.size()), 36, width),
        values[36]);
    EXPECT_EQ(
        bit_util::GetPacked(Slice(packed.data(), packed.size()), 38, width),
        values[38]);
  }
}

TEST(BitWriterReader, MixedWidths) {
  BitWriter w;
  w.Write(0b101, 3);
  w.WriteBit(true);
  w.Write(0xFFFF, 16);
  w.Write(1, 1);
  BitReader r(Slice(w.bytes().data(), w.bytes().size()));
  EXPECT_EQ(r.Read(3), 0b101u);
  EXPECT_TRUE(r.ReadBit());
  EXPECT_EQ(r.Read(16), 0xFFFFu);
  EXPECT_EQ(r.Read(1), 1u);
}

// The LSB-first layout BitWriter must keep, written one bit per step.
struct BitAtATimeWriter {
  std::vector<uint8_t> bytes;
  size_t bits = 0;
  void Write(uint64_t value, int width) {
    for (int i = 0; i < width; ++i, ++bits) {
      if (bits / 8 >= bytes.size()) bytes.push_back(0);
      if ((value >> i) & 1) bytes[bits / 8] |= static_cast<uint8_t>(1u << (bits % 8));
    }
  }
};

TEST(BitWriterReader, WriteMatchesBitAtATimeReferenceAtEveryOffset) {
  Random rng(9);
  for (int offset = 0; offset <= 16; ++offset) {
    for (int width = 0; width <= 64; ++width) {
      // Values carry set bits above `width`, which must not leak.
      for (uint64_t value : {~uint64_t{0}, rng.Next(), uint64_t{1}}) {
        BitWriter w;
        BitAtATimeWriter ref;
        const uint64_t prefix = rng.Next();
        w.Write(prefix, offset);
        ref.Write(prefix, offset);
        w.Write(value, width);
        ref.Write(value, width);
        w.WriteBit(true);
        ref.Write(1, 1);
        ASSERT_EQ(w.bytes(), ref.bytes) << "offset " << offset << " width " << width;
        ASSERT_EQ(w.bit_count(), ref.bits);
      }
    }
  }
}

TEST(BitUtil, BitPlanesMatchBitLoopReference) {
  Random rng(10);
  for (size_t n : {0, 1, 7, 8, 9, 63, 64, 65, 1000}) {
    std::vector<uint64_t> words(n);
    for (auto& w : words) w = rng.Next() >> rng.Uniform(64);
    const size_t plane_bytes = (n + 7) / 8;
    std::vector<uint8_t> want(plane_bytes * 64, 0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t b = 0; b < 64; ++b) {
        if ((words[i] >> b) & 1) {
          want[b * plane_bytes + i / 8] |= static_cast<uint8_t>(1u << (i % 8));
        }
      }
    }
    std::vector<uint8_t> got;
    bit_util::BitPlanes(words.data(), n, &got);
    EXPECT_EQ(got, want) << "n = " << n;
  }
}

TEST(BitUtil, WordsFromPlanesInvertsBitPlanesFromUnalignedSources) {
  Random rng(11);
  for (size_t n : {0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 4096, 8193}) {
    std::vector<uint64_t> words(n);
    for (auto& w : words) w = rng.Next() >> rng.Uniform(64);
    if (n > 2) {
      words[0] = 0;
      words[1] = ~uint64_t{0};
      words[2] = uint64_t{1} << 63;
    }
    // Offset every buffer by one byte so no access is 8-byte aligned.
    // std::copy, unlike memcpy, accepts an empty vector's null data().
    std::vector<uint8_t> src(n * 8 + 1);
    const auto* word_bytes = reinterpret_cast<const uint8_t*>(words.data());
    std::copy(word_bytes, word_bytes + n * 8, src.begin() + 1);
    std::vector<uint8_t> planes;
    bit_util::BitPlanes(src.data() + 1, n, &planes);
    ASSERT_EQ(planes.size(), (n + 7) / 8 * 64) << "n = " << n;
    std::vector<uint8_t> shifted(planes.size() + 1);
    std::copy(planes.begin(), planes.end(), shifted.begin() + 1);
    std::vector<uint8_t> dst(n * 8 + 1, 0xA5);
    bit_util::WordsFromPlanes(shifted.data() + 1, n, dst.data() + 1);
    std::vector<uint64_t> got(n);
    std::copy(dst.begin() + 1, dst.end(),
              reinterpret_cast<uint8_t*>(got.data()));
    EXPECT_EQ(got, words) << "n = " << n;
    EXPECT_EQ(dst[0], 0xA5) << "wrote before the destination, n = " << n;
  }
}

TEST(BitUtil, WordsFromPlanesIgnoresPaddingBitsAndWritesOnlyNWords) {
  // Planes whose bits past n are all set: the tail word stays untouched.
  const size_t n = 9;
  std::vector<uint8_t> planes(64 * 2, 0xFF);
  std::vector<uint64_t> words(n + 1, 7);
  bit_util::WordsFromPlanes(planes.data(), n, words.data());
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(words[i], ~uint64_t{0});
  EXPECT_EQ(words[n], 7u);
}

TEST(Bitmap, SetGetCount) {
  Bitmap bm(100);
  EXPECT_EQ(bm.CountSet(), 0u);
  bm.Set(0);
  bm.Set(63);
  bm.Set(64);
  bm.Set(99);
  EXPECT_EQ(bm.CountSet(), 4u);
  EXPECT_TRUE(bm.Get(63));
  EXPECT_FALSE(bm.Get(62));
  bm.Clear(63);
  EXPECT_FALSE(bm.Get(63));
  EXPECT_EQ(bm.SetIndices(), (std::vector<uint32_t>{0, 64, 99}));
}

TEST(Bitmap, SerializeRoundTrip) {
  Bitmap bm(77);
  for (size_t i = 0; i < 77; i += 3) bm.Set(i);
  BufferBuilder b;
  bm.Serialize(&b);
  Buffer buf = b.Finish();
  SliceReader r(buf.AsSlice());
  Bitmap back = Bitmap::Deserialize(&r);
  EXPECT_EQ(back, bm);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Varint, RoundTripBoundaries) {
  const uint64_t cases[] = {0,    1,     127,        128,
                            16383, 16384, (1ull << 32), ~0ull};
  for (uint64_t v : cases) {
    std::vector<uint8_t> buf;
    varint::PutVarint64(&buf, v);
    EXPECT_EQ(buf.size(), static_cast<size_t>(varint::VarintLength(v)));
    size_t pos = 0;
    uint64_t out;
    ASSERT_TRUE(varint::GetVarint64(Slice(buf.data(), buf.size()), &pos, &out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Varint, TruncatedFails) {
  std::vector<uint8_t> buf;
  varint::PutVarint64(&buf, 1ull << 40);
  buf.pop_back();
  size_t pos = 0;
  uint64_t out;
  EXPECT_FALSE(varint::GetVarint64(Slice(buf.data(), buf.size()), &pos, &out));
}

TEST(Varint, ZigZagRoundTrip) {
  const int64_t cases[] = {0, -1, 1, -2, 2, INT64_MAX, INT64_MIN, -123456789};
  for (int64_t v : cases) {
    EXPECT_EQ(varint::ZigZagDecode(varint::ZigZagEncode(v)), v) << v;
  }
  // Small magnitudes map to small codes.
  EXPECT_EQ(varint::ZigZagEncode(0), 0u);
  EXPECT_EQ(varint::ZigZagEncode(-1), 1u);
  EXPECT_EQ(varint::ZigZagEncode(1), 2u);
}

TEST(Hash, XxHash64KnownProperties) {
  // Deterministic, seed-sensitive, input-sensitive.
  std::string data = "the quick brown fox";
  uint64_t h1 = XxHash64(data.data(), data.size());
  EXPECT_EQ(h1, XxHash64(data.data(), data.size()));
  EXPECT_NE(h1, XxHash64(data.data(), data.size(), 1));
  std::string data2 = "the quick brown foy";
  EXPECT_NE(h1, XxHash64(data2.data(), data2.size()));
}

TEST(Hash, XxHash64AllLengthPaths) {
  // Exercise <4, <8, <32, and >=32 byte paths; distinct outputs.
  std::vector<uint8_t> buf(100);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<uint8_t>(i);
  std::unordered_set<uint64_t> seen;
  for (size_t len : {0u, 1u, 3u, 4u, 7u, 8u, 31u, 32u, 33u, 100u}) {
    seen.insert(XxHash64(buf.data(), len));
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Hash, Crc32cKnownVector) {
  // Standard test vector: CRC32C("123456789") = 0xE3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Random, DeterministicAndUniform) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Random c(43);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) sum += c.NextDouble();
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Random, GaussianMoments) {
  Random rng(7);
  double sum = 0, sq = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

}  // namespace
}  // namespace bullion
