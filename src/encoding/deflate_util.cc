#include "encoding/deflate_util.h"

#include <zlib.h>

#include <algorithm>

#include "common/varint.h"

namespace bullion {
namespace deflate_util {

Status Compress(Slice input, std::vector<uint8_t>* out) {
  uLongf bound = compressBound(static_cast<uLong>(input.size()));
  out->resize(bound);
  int rc = compress2(out->data(), &bound, input.data(),
                     static_cast<uLong>(input.size()), Z_DEFAULT_COMPRESSION);
  if (rc != Z_OK) {
    return Status::IOError("deflate failed: " + std::to_string(rc));
  }
  out->resize(bound);
  return Status::OK();
}

Status Decompress(Slice input, size_t raw_size, uint8_t* out) {
  uLongf dest_len = static_cast<uLongf>(raw_size);
  int rc = uncompress(out, &dest_len, input.data(),
                      static_cast<uLong>(input.size()));
  if (rc != Z_OK || dest_len != raw_size) {
    return Status::Corruption("inflate failed: " + std::to_string(rc));
  }
  return Status::OK();
}

Status CompressChunked(Slice input, BufferBuilder* out) {
  size_t n_chunks = (input.size() + kChunkSize - 1) / kChunkSize;
  varint::PutVarint64(out, n_chunks);
  for (size_t c = 0; c < n_chunks; ++c) {
    size_t off = c * kChunkSize;
    size_t len = std::min(kChunkSize, input.size() - off);
    std::vector<uint8_t> comp;
    BULLION_RETURN_NOT_OK(Compress(input.SubSlice(off, len), &comp));
    varint::PutVarint64(out, len);
    varint::PutVarint64(out, comp.size());
    out->AppendBytes(comp.data(), comp.size());
  }
  return Status::OK();
}

namespace {

/// Walks the chunk framing, inflating chunk i into `dest(raw_len)`,
/// which returns where its raw bytes go, or nullptr to reject them.
template <typename Dest>
Status InflateChunks(SliceReader* in, Dest dest) {
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  uint64_t n_chunks;
  if (!varint::GetVarint64(rest, &pos, &n_chunks)) {
    return Status::Corruption("chunked: chunk count truncated");
  }
  for (uint64_t c = 0; c < n_chunks; ++c) {
    uint64_t raw_len, comp_len;
    if (!varint::GetVarint64(rest, &pos, &raw_len) ||
        !varint::GetVarint64(rest, &pos, &comp_len)) {
      return Status::Corruption("chunked: chunk header truncated");
    }
    if (raw_len > kChunkSize) {
      return Status::Corruption("chunked: raw length exceeds chunk size");
    }
    if (rest.size() - pos < comp_len) {
      return Status::Corruption("chunked: chunk payload truncated");
    }
    uint8_t* raw = dest(static_cast<size_t>(raw_len));
    if (raw == nullptr) {
      return Status::Corruption("chunked: raw bytes exceed destination");
    }
    BULLION_RETURN_NOT_OK(
        Decompress(rest.SubSlice(pos, comp_len), raw_len, raw));
    pos += comp_len;
  }
  in->Seek(in->position() - rest.size() + pos);
  return Status::OK();
}

}  // namespace

Status DecompressChunked(SliceReader* in, std::vector<uint8_t>* out) {
  out->clear();
  return InflateChunks(in, [out](size_t raw_len) {
    const size_t old_size = out->size();
    out->resize(old_size + raw_len);
    return out->data() + old_size;
  });
}

Status DecompressChunkedInto(SliceReader* in, std::span<uint8_t> out) {
  size_t done = 0;
  BULLION_RETURN_NOT_OK(
      InflateChunks(in, [out, &done](size_t raw_len) -> uint8_t* {
        if (raw_len > out.size() - done) return nullptr;
        uint8_t* raw = out.data() + done;
        done += raw_len;
        return raw;
      }));
  if (done != out.size()) {
    return Status::Corruption("chunked: raw bytes short of destination");
  }
  return Status::OK();
}

}  // namespace deflate_util
}  // namespace bullion
