// Per-row references for the read path: the row-at-a-time copy and
// the decode-into-a-temporary chunk and page-run readers that the
// library's in-place paths replaced. Tests check the in-place paths
// against these.

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"
#include "format/column_vector.h"
#include "format/footer.h"
#include "format/page.h"
#include "format/reader.h"

namespace bullion {
namespace reference {

template <typename T>
void AppendRowValues(const std::vector<std::vector<int64_t>>& src_offsets,
                     const std::vector<T>& src_values, int depth, int64_t r,
                     std::vector<std::vector<int64_t>>* offsets,
                     std::vector<T>* values) {
  if (depth == 0) {
    values->push_back(r < 0 ? T{} : src_values[static_cast<size_t>(r)]);
    return;
  }
  auto count = [](const auto& v) { return static_cast<int64_t>(v.size()); };
  if (r < 0) {  // an empty-list placeholder
    (*offsets)[0].push_back(depth == 1 ? count(*values)
                                       : count((*offsets)[1]) - 1);
    return;
  }
  const auto& rows = src_offsets[0];
  const size_t row = static_cast<size_t>(r);
  if (depth == 1) {
    for (int64_t j = rows[row]; j < rows[row + 1]; ++j) {
      values->push_back(src_values[static_cast<size_t>(j)]);
    }
    (*offsets)[0].push_back(count(*values));
    return;
  }
  const auto& inner = src_offsets[1];
  for (int64_t i = rows[row]; i < rows[row + 1]; ++i) {
    for (int64_t j = inner[static_cast<size_t>(i)];
         j < inner[static_cast<size_t>(i) + 1]; ++j) {
      values->push_back(src_values[static_cast<size_t>(j)]);
    }
    (*offsets)[1].push_back(count(*values));
  }
  (*offsets)[0].push_back(count((*offsets)[1]) - 1);
}

/// Appends row `r` of `src` to `out` one value at a time; a negative
/// `r` appends a zero/empty placeholder. Validity is not copied.
inline void AppendRow(const ColumnVector& src, int64_t r, ColumnVector* out) {
  switch (src.domain()) {
    case ValueDomain::kInt:
      AppendRowValues(src.offsets(), src.int_values(), src.list_depth(), r,
                      &out->mutable_offsets(), &out->mutable_int_values());
      break;
    case ValueDomain::kReal:
      AppendRowValues(src.offsets(), src.real_values(), src.list_depth(), r,
                      &out->mutable_offsets(), &out->mutable_real_values());
      break;
    case ValueDomain::kBinary:
      AppendRowValues(src.offsets(), src.bin_values(), src.list_depth(), r,
                      &out->mutable_offsets(), &out->mutable_bin_values());
      break;
  }
}

inline ColumnVector EmptyColumn(const FooterView& f, uint32_t c) {
  ColumnRecord rec = f.column_record(c);
  return ColumnVector(static_cast<PhysicalType>(rec.physical),
                      rec.list_depth);
}

/// Chunk (g, c) read the former way: every page decodes into a
/// temporary, then each row is copied on its own, realigned against
/// the deletion vector when in-place deletion shortened the page.
inline Status ReadChunk(const TableReader& reader, uint32_t g, uint32_t c,
                        bool filter_deleted, ColumnVector* out) {
  const FooterView& f = reader.footer();
  *out = EmptyColumn(f, c);
  auto [first_page, end_page] = f.chunk_pages(g, c);
  uint32_t row0 = 0;
  for (uint32_t p = first_page; p < end_page; ++p) {
    Buffer page;
    BULLION_RETURN_NOT_OK(
        reader.file()->Read(f.page_offset(p), f.page_slot_size(p), &page));
    ColumnVector decoded = EmptyColumn(f, c);
    BULLION_RETURN_NOT_OK(DecodePage(page.AsSlice(), &decoded));
    const uint32_t expected = f.page_row_count(p);
    const size_t got = decoded.num_rows();
    if (got == expected) {
      for (uint32_t r = 0; r < expected; ++r) {
        if (filter_deleted && f.IsDeleted(g, row0 + r)) continue;
        AppendRow(decoded, r, out);
      }
    } else if (got < expected) {
      size_t ti = 0;
      for (uint32_t r = 0; r < expected; ++r) {
        if (f.IsDeleted(g, row0 + r)) {
          if (!filter_deleted) AppendRow(decoded, -1, out);
          continue;
        }
        if (ti >= got) return Status::Corruption("values exhausted");
        AppendRow(decoded, static_cast<int64_t>(ti++), out);
      }
      if (ti != got) return Status::Corruption("trailing values");
    } else {
      return Status::Corruption("page decoded more rows than recorded");
    }
    row0 += expected;
  }
  return Status::OK();
}

/// Chunk-relative pages [page_begin, page_end) of chunk (g, c) read the
/// former way: a page decoding short of its row count is Corruption.
inline Status DecodePageRun(const TableReader& reader, uint32_t g, uint32_t c,
                            uint32_t page_begin, uint32_t page_end,
                            ColumnVector* out) {
  const FooterView& f = reader.footer();
  *out = EmptyColumn(f, c);
  const uint32_t first_page = f.chunk_pages(g, c).first;
  for (uint32_t p = first_page + page_begin; p < first_page + page_end; ++p) {
    Buffer page;
    BULLION_RETURN_NOT_OK(
        reader.file()->Read(f.page_offset(p), f.page_slot_size(p), &page));
    ColumnVector decoded = EmptyColumn(f, c);
    BULLION_RETURN_NOT_OK(DecodePage(page.AsSlice(), &decoded));
    if (decoded.num_rows() != f.page_row_count(p)) {
      return Status::Corruption("page run decode hit a shortened page");
    }
    for (uint32_t r = 0; r < f.page_row_count(p); ++r) {
      AppendRow(decoded, r, out);
    }
  }
  return Status::OK();
}

/// Reads pages [page_begin, page_end) of chunk (g, c) through
/// TableReader::DecodePageRun, fetching exactly their extent.
inline Status LibraryPageRun(const TableReader& reader, uint32_t g,
                             uint32_t c, uint32_t page_begin,
                             uint32_t page_end, ColumnVector* out) {
  BULLION_ASSIGN_OR_RETURN(auto extent,
                           reader.PageRunExtent(g, c, page_begin, page_end));
  Buffer bytes;
  BULLION_RETURN_NOT_OK(reader.file()->Read(
      extent.first, extent.second - extent.first, &bytes));
  return reader.DecodePageRun(g, c, page_begin, page_end, bytes.AsSlice(),
                              ReadOptions{}, out);
}

/// Every chunk of every group read by ReadColumnChunk (deleted rows
/// filtered and kept), and page runs read by DecodePageRun, equal the
/// per-row readers above; where those report Corruption (a page run
/// over a page shortened by deletion), so must the library.
inline void ExpectReaderMatchesReference(const TableReader& reader) {
  const FooterView& f = reader.footer();
  for (uint32_t g = 0; g < reader.num_row_groups(); ++g) {
    for (uint32_t c = 0; c < reader.num_columns(); ++c) {
      const std::string what =
          "group " + std::to_string(g) + " column " + std::to_string(c);
      for (bool filter : {true, false}) {
        ReadOptions ropts;
        ropts.filter_deleted = filter;
        ColumnVector got, want;
        ASSERT_TRUE(reader.ReadColumnChunk(g, c, ropts, &got).ok()) << what;
        ASSERT_TRUE(ReadChunk(reader, g, c, filter, &want).ok()) << what;
        EXPECT_EQ(got, want) << what << " filter " << filter;
      }
      auto [first, end] = f.chunk_pages(g, c);
      const uint32_t pages = end - first;
      std::vector<std::pair<uint32_t, uint32_t>> runs = {
          {0, pages}, {pages / 2, pages}};
      for (uint32_t p = 0; p < pages; ++p) runs.push_back({p, p + 1});
      for (auto [b, e] : runs) {
        if (b >= e) continue;
        ColumnVector got, want;
        Status got_st = LibraryPageRun(reader, g, c, b, e, &got);
        Status want_st = DecodePageRun(reader, g, c, b, e, &want);
        ASSERT_EQ(got_st.ok(), want_st.ok())
            << what << " pages " << b << ".." << e << ": "
            << got_st.ToString() << " vs " << want_st.ToString();
        if (!got_st.ok()) {
          EXPECT_TRUE(got_st.IsCorruption()) << got_st.ToString();
          continue;
        }
        EXPECT_EQ(got, want) << what << " pages " << b << ".." << e;
      }
    }
  }
}

}  // namespace reference
}  // namespace bullion
