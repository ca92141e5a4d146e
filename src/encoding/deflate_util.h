// zlib (deflate) helpers shared by Chunked and BitShuffle codecs.
// Deflate stands in for zstd, which the paper's Chunked encoding uses
// (zstd development headers are unavailable offline; see DESIGN.md §2).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/slice.h"
#include "common/status.h"

namespace bullion {
namespace deflate_util {

/// Chunk size the paper specifies for Chunked encoding (Table 2).
constexpr size_t kChunkSize = 256 * 1024;

/// Compresses `input` with deflate at the default level.
Status Compress(Slice input, std::vector<uint8_t>* out);

/// Decompresses into exactly `raw_size` bytes at `out`.
Status Decompress(Slice input, size_t raw_size, uint8_t* out);

/// Writes [n_chunks varint] then per chunk [raw varint][comp varint][bytes].
Status CompressChunked(Slice input, BufferBuilder* out);

/// Reads the framing written by CompressChunked; advances the reader.
/// `out` is replaced by the raw bytes; each chunk inflates straight
/// into its tail.
Status DecompressChunked(SliceReader* in, std::vector<uint8_t>* out);

/// As DecompressChunked, but inflates into caller storage whose size
/// must equal the total raw length; any other total is Corruption.
Status DecompressChunkedInto(SliceReader* in, std::span<uint8_t> out);

}  // namespace deflate_util
}  // namespace bullion
