#include "format/sparse_delta.h"

#include <algorithm>
#include <unordered_map>

#include "encoding/cascade.h"

namespace bullion {

WindowMatch FindBestWindow(std::span<const int64_t> prev,
                           std::span<const int64_t> cur,
                           size_t min_overlap) {
  WindowMatch best{false, 0, 0, 0, static_cast<size_t>(cur.size())};
  if (prev.empty() || cur.empty()) return best;

  // An alignment diagonal pairs cur[k + shift] with prev[k], for
  // shift = (index in cur) - (index in prev) in
  // [-(prev.size()-1), cur.size()-1]. The winner is the longest run of
  // equal elements on any diagonal, then the smallest shift, then the
  // earliest start. Diagonals are visited longest first: the plateau
  // shifts [lo, hi] have length m = min(|prev|, |cur|), and the two
  // diagonals d steps outside it (1 <= d < m) have length m - d. The
  // search stops once no remaining diagonal can reach the best run (or
  // min_overlap, below which no run counts).
  const int64_t p_size = static_cast<int64_t>(prev.size());
  const int64_t c_size = static_cast<int64_t>(cur.size());
  const int64_t lo = std::min<int64_t>(0, c_size - p_size);
  const int64_t hi = std::max<int64_t>(0, c_size - p_size);
  const size_t plateau = static_cast<size_t>(std::min(p_size, c_size));
  size_t best_len = 0;
  int64_t best_shift = 0;

  auto scan = [&](int64_t shift) {
    size_t p_begin = shift < 0 ? static_cast<size_t>(-shift) : 0;
    size_t c_begin = shift > 0 ? static_cast<size_t>(shift) : 0;
    size_t len = std::min(prev.size() - p_begin, cur.size() - c_begin);
    size_t k = 0;
    while (k < len) {
      if (cur[c_begin + k] != prev[p_begin + k]) {
        ++k;
        continue;
      }
      size_t start = k;
      while (k < len && cur[c_begin + k] == prev[p_begin + k]) ++k;
      size_t run = k - start;
      if (run > best_len || (run == best_len && shift < best_shift)) {
        best_len = run;
        best_shift = shift;
        best.range_start = p_begin + start;
        best.range_end = p_begin + start + run;
        best.head_len = c_begin + start;
        best.tail_len = cur.size() - (c_begin + start + run);
      }
    }
  };
  for (int64_t shift = lo; shift <= hi; ++shift) scan(shift);
  for (size_t d = 1; d < plateau; ++d) {
    const size_t len = plateau - d;
    if (len < min_overlap || len < best_len) break;
    // Every shift seen so far lies right of lo - d and left of hi + d,
    // so a tie with the best run wins on the left and loses on the right.
    scan(lo - static_cast<int64_t>(d));
    if (len > best_len) scan(hi + static_cast<int64_t>(d));
  }

  best.is_delta = best_len >= min_overlap;
  if (!best.is_delta) {
    best.range_start = best.range_end = 0;
    best.head_len = 0;
    best.tail_len = cur.size();
  }
  return best;
}

Result<Buffer> EncodeSparseDeltaColumn(std::span<const int64_t> offsets,
                                       std::span<const int64_t> values,
                                       const SparseDeltaOptions& options) {
  if (offsets.empty()) {
    return Status::InvalidArgument("offsets must have at least one entry");
  }
  size_t num_rows = offsets.size() - 1;

  std::vector<uint8_t> flags;             // 1 = delta
  std::vector<int64_t> range_starts;      // per delta row
  std::vector<int64_t> range_ends;        // per delta row
  std::vector<int64_t> head_lens;         // per row
  std::vector<int64_t> tail_lens;         // per row
  std::vector<int64_t> data;              // bases + heads + tails
  flags.reserve(num_rows);

  std::span<const int64_t> prev;
  for (size_t r = 0; r < num_rows; ++r) {
    size_t b = static_cast<size_t>(offsets[r]);
    size_t e = static_cast<size_t>(offsets[r + 1]);
    std::span<const int64_t> cur = values.subspan(b, e - b);
    WindowMatch m = FindBestWindow(prev, cur, options.min_overlap);
    if (m.is_delta) {
      flags.push_back(1);
      range_starts.push_back(static_cast<int64_t>(m.range_start));
      range_ends.push_back(static_cast<int64_t>(m.range_end));
      head_lens.push_back(static_cast<int64_t>(m.head_len));
      tail_lens.push_back(static_cast<int64_t>(m.tail_len));
      data.insert(data.end(), cur.begin(), cur.begin() + m.head_len);
      data.insert(data.end(), cur.end() - m.tail_len, cur.end());
    } else {
      flags.push_back(0);
      head_lens.push_back(0);
      tail_lens.push_back(static_cast<int64_t>(cur.size()));
      data.insert(data.end(), cur.begin(), cur.end());
    }
    prev = cur;
  }

  // Block layout: [tag][num_rows varint] then metadata children then
  // the bulk data child.
  BufferBuilder out;
  WriteBlockHeader(EncodingType::kSparseDelta, num_rows, &out);
  CascadeContext ctx(options.cascade, 0);
  BULLION_RETURN_NOT_OK(ctx.EncodeBoolChild(flags, &out));
  BULLION_RETURN_NOT_OK(ctx.EncodeIntChild(range_starts, &out));
  BULLION_RETURN_NOT_OK(ctx.EncodeIntChild(range_ends, &out));
  BULLION_RETURN_NOT_OK(ctx.EncodeIntChild(head_lens, &out));
  BULLION_RETURN_NOT_OK(ctx.EncodeIntChild(tail_lens, &out));
  // Bulk data: mini-batch reads, infrequent filtering -> block compress.
  CascadeOptions data_opts = options.cascade;
  CascadeContext data_ctx(data_opts, 0);
  BULLION_RETURN_NOT_OK(
      EncodeIntBlockAs(EncodingType::kChunked, data, &data_ctx, &out));
  return out.Finish();
}

Status DecodeSparseDeltaAppend(Slice block, std::vector<int64_t>* offsets,
                               std::vector<int64_t>* values) {
  SliceReader in(block);
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(&in));
  if (header.type != EncodingType::kSparseDelta) {
    return Status::Corruption("expected sparse-delta block");
  }
  size_t num_rows = header.count;

  std::vector<uint8_t> flags;
  std::vector<int64_t> range_starts, range_ends, head_lens, tail_lens, data;
  BULLION_RETURN_NOT_OK(DecodeBoolBlock(&in, &flags));
  BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &range_starts));
  BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &range_ends));
  BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &head_lens));
  BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &tail_lens));
  BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &data));
  if (flags.size() != num_rows || head_lens.size() != num_rows ||
      tail_lens.size() != num_rows ||
      range_ends.size() != range_starts.size()) {
    return Status::Corruption("sparse-delta metadata count mismatch");
  }

  size_t data_pos = 0;
  size_t delta_idx = 0;
  // The previous row is values[prev_begin, row_begin): a delta row
  // copies its reused range from there, inside `values`.
  size_t prev_begin = values->size();
  for (size_t r = 0; r < num_rows; ++r) {
    const size_t row_begin = values->size();
    if (head_lens[r] < 0 || tail_lens[r] < 0) {
      return Status::Corruption("sparse-delta negative head/tail length");
    }
    size_t head = static_cast<size_t>(head_lens[r]);
    size_t tail = static_cast<size_t>(tail_lens[r]);
    // Compared against what is left, so no sum can wrap.
    const size_t left = data.size() - data_pos;
    if (flags[r]) {
      if (delta_idx >= range_starts.size()) {
        return Status::Corruption("sparse-delta range stream exhausted");
      }
      if (range_starts[delta_idx] < 0 || range_ends[delta_idx] < 0) {
        return Status::Corruption("sparse-delta negative range");
      }
      size_t s = static_cast<size_t>(range_starts[delta_idx]);
      size_t e = static_cast<size_t>(range_ends[delta_idx]);
      ++delta_idx;
      if (s > e || e > row_begin - prev_begin) {
        return Status::Corruption("sparse-delta range out of bounds");
      }
      if (head > left || tail > left - head) {
        return Status::Corruption("sparse-delta data stream exhausted");
      }
      // Resize first, so the previous row's storage is stable while
      // its range is copied; it ends where the new row begins.
      values->resize(row_begin + head + (e - s) + tail);
      int64_t* dst = values->data() + row_begin;
      dst = std::copy_n(data.data() + data_pos, head, dst);
      dst = std::copy_n(values->data() + prev_begin + s, e - s, dst);
      std::copy_n(data.data() + data_pos + head, tail, dst);
      data_pos += head + tail;
    } else {
      if (tail > left) {
        return Status::Corruption("sparse-delta base stream exhausted");
      }
      values->insert(values->end(), data.begin() + data_pos,
                     data.begin() + data_pos + tail);
      data_pos += tail;
    }
    offsets->push_back(static_cast<int64_t>(values->size()));
    prev_begin = row_begin;
  }
  if (delta_idx != range_starts.size() || data_pos != data.size()) {
    return Status::Corruption("sparse-delta trailing payload");
  }
  return Status::OK();
}

Status DecodeSparseDeltaColumn(Slice block, std::vector<int64_t>* offsets,
                               std::vector<int64_t>* values) {
  offsets->assign(1, 0);
  values->clear();
  return DecodeSparseDeltaAppend(block, offsets, values);
}

}  // namespace bullion
