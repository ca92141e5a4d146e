#include "format/column_vector.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

namespace bullion {

void ColumnVector::EnsureValidity() {
  if (validity_.empty()) validity_.assign(num_rows(), 1);
}

bool ColumnVector::SameValidity(const ColumnVector& o) const {
  if (validity_.empty() && o.validity_.empty()) return true;
  const size_t n = num_rows();
  if (n != o.num_rows()) return false;
  for (size_t i = 0; i < n; ++i) {
    if (IsNull(i) != o.IsNull(i)) return false;
  }
  return true;
}

void ColumnVector::AppendNullRow() {
  const size_t rows_before = num_rows();
  EnsureValidity();
  AppendPlaceholderRow();
  // EnsureValidity on a zero-row vector leaves the bitmap empty and the
  // placeholder append then skips it; resize covers both shapes.
  validity_.resize(rows_before + 1);
  validity_[rows_before] = 0;
}

void ColumnVector::AppendPlaceholderRow() {
  if (list_depth_ == 0) {
    switch (domain()) {
      case ValueDomain::kInt:
        AppendInt(0);
        break;
      case ValueDomain::kReal:
        AppendReal(0.0);
        break;
      case ValueDomain::kBinary:
        AppendBinary("");
        break;
    }
  } else {
    // An empty list: its row ends where the level below ends now.
    offsets_[0].push_back(
        list_depth_ == 1 ? static_cast<int64_t>(LeafCount())
                         : static_cast<int64_t>(offsets_[1].size()) - 1);
  }
  // Erased-row placeholders are valid zeros (the §2.1 realignment
  // contract), not nulls.
  if (!validity_.empty()) validity_.push_back(1);
}

Result<ColumnVector> ColumnVector::Permute(
    const std::vector<uint32_t>& perm) const {
  const size_t rows = num_rows();
  for (uint32_t src : perm) {
    if (src >= rows) {
      return Status::InvalidArgument("gather index out of range");
    }
  }
  ColumnVector out(physical_, list_depth_);
  out.AppendRows(*this, perm);
  return out;
}

void ColumnVector::AppendValidity(const ColumnVector& src, size_t begin,
                                  size_t end) {
  const auto from = src.validity_.begin();
  if (validity_.empty()) {
    if (src.validity_.empty() ||
        std::find(from + begin, from + end, 0) == from + end) {
      return;
    }
    EnsureValidity();
  }
  if (src.validity_.empty()) {
    validity_.resize(validity_.size() + (end - begin), 1);
  } else {
    validity_.insert(validity_.end(), from + begin, from + end);
  }
}

namespace {

/// Appends rows [begin, end) of a list hierarchy of `depth` levels:
/// each level's offsets are rebased onto the destination's item count
/// at the level below, then the leaf values they span are copied once.
template <typename T>
void AppendRun(const std::vector<std::vector<int64_t>>& src_offsets,
               const std::vector<T>& src_values, int depth, size_t begin,
               size_t end, std::vector<std::vector<int64_t>>* offsets,
               std::vector<T>* values) {
  size_t lo = begin;
  size_t hi = end;
  for (int level = 0; level < depth; ++level) {
    const std::vector<int64_t>& from = src_offsets[level];
    std::vector<int64_t>& to = (*offsets)[level];
    const int64_t below =
        level + 1 < depth
            ? static_cast<int64_t>((*offsets)[level + 1].size()) - 1
            : static_cast<int64_t>(values->size());
    const int64_t shift = below - from[lo];
    const size_t at = to.size();
    to.resize(at + (hi - lo));
    for (size_t i = lo; i < hi; ++i) to[at + (i - lo)] = from[i + 1] + shift;
    lo = static_cast<size_t>(from[lo]);
    hi = static_cast<size_t>(from[hi]);
  }
  values->insert(values->end(), src_values.begin() + lo,
                 src_values.begin() + hi);
}

}  // namespace

void ColumnVector::AppendRowRange(const ColumnVector& src, size_t begin,
                                  size_t end) {
  if (begin >= end) return;
  AppendValidity(src, begin, end);
  switch (domain()) {
    case ValueDomain::kInt:
      AppendRun(src.offsets_, src.int_values_, list_depth_, begin, end,
                &offsets_, &int_values_);
      break;
    case ValueDomain::kReal:
      AppendRun(src.offsets_, src.real_values_, list_depth_, begin, end,
                &offsets_, &real_values_);
      break;
    case ValueDomain::kBinary:
      AppendRun(src.offsets_, src.bin_values_, list_depth_, begin, end,
                &offsets_, &bin_values_);
      break;
  }
}

void ColumnVector::AppendRows(const ColumnVector& src,
                              std::span<const uint32_t> rows) {
  size_t i = 0;
  while (i < rows.size()) {
    size_t j = i + 1;
    while (j < rows.size() &&
           rows[j] == static_cast<size_t>(rows[j - 1]) + 1) {
      ++j;
    }
    AppendRowRange(src, rows[i], static_cast<size_t>(rows[i]) + (j - i));
    i = j;
  }
}

void ColumnVector::ShrinkToFit() {
  for (auto& level : offsets_) level.shrink_to_fit();
  int_values_.shrink_to_fit();
  real_values_.shrink_to_fit();
  bin_values_.shrink_to_fit();
  validity_.shrink_to_fit();
}

void ColumnVector::AppendRowFrom(const ColumnVector& src, int64_t src_row) {
  if (src_row < 0) {
    AppendPlaceholderRow();  // stands in for a physically removed row
    return;
  }
  const size_t r = static_cast<size_t>(src_row);
  AppendRowRange(src, r, r + 1);
}

namespace {

template <typename T>
bool CompareRow(T a, CompareOp op, T b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
    case CompareOp::kIn:
      break;  // handled by the set paths below, never row-by-row
  }
  return false;
}

/// Match vector of `col IN (values)` on a numeric column. Two probe
/// sets mirror the single-compare promotion rules: an int row matches
/// an int member as int64 and a real member as double.
Status InMatchNumeric(const ColumnVector& col,
                      const std::vector<FilterValue>& values,
                      std::vector<uint8_t>* match) {
  std::unordered_set<int64_t> int_set;
  std::unordered_set<double> real_set;
  for (const FilterValue& v : values) {
    if (v.is_binary) {
      return Status::InvalidArgument(
          "IN list mixes a byte-string member with a numeric column");
    }
    if (v.is_real) {
      real_set.insert(v.r);
    } else {
      int_set.insert(v.i);
      real_set.insert(static_cast<double>(v.i));
    }
  }
  const bool col_is_int = col.domain() == ValueDomain::kInt;
  const size_t n = match->size();
  for (size_t r = 0; r < n; ++r) {
    if (col.IsNull(r)) continue;
    bool hit;
    if (col_is_int) {
      const int64_t x = col.int_values()[r];
      hit = int_set.count(x) != 0 ||
            (!real_set.empty() &&
             real_set.count(static_cast<double>(x)) != 0);
    } else {
      hit = real_set.count(col.real_values()[r]) != 0;
    }
    if (hit) (*match)[r] = 1;
  }
  return Status::OK();
}

/// Match vector of one filter on a binary column (kEq / kNe / kIn over
/// byte strings; ordering ops are not implemented row-level, matching
/// the planner's rejection).
Status BinaryMatch(const ColumnVector& col, const Filter& filter,
                   std::vector<uint8_t>* match) {
  const std::vector<std::string>& v = col.bin_values();
  const size_t n = match->size();
  if (filter.op == CompareOp::kIn) {
    std::unordered_set<std::string_view> set;
    for (const FilterValue& m : filter.values) {
      if (!m.is_binary) {
        return Status::InvalidArgument(
            "IN list mixes a numeric member with a binary column");
      }
      set.insert(m.s);
    }
    for (size_t r = 0; r < n; ++r) {
      if (!col.IsNull(r) && set.count(v[r]) != 0) (*match)[r] = 1;
    }
    return Status::OK();
  }
  if (filter.op != CompareOp::kEq && filter.op != CompareOp::kNe) {
    return Status::InvalidArgument(
        "binary columns support only ==, !=, and IN predicates");
  }
  if (!filter.value.is_binary) {
    return Status::InvalidArgument(
        "numeric constant compared against a binary column");
  }
  const bool want_eq = filter.op == CompareOp::kEq;
  for (size_t r = 0; r < n; ++r) {
    if (!col.IsNull(r) && (v[r] == filter.value.s) == want_eq) {
      (*match)[r] = 1;
    }
  }
  return Status::OK();
}

}  // namespace

Status FilterMatchMask(const ColumnVector& col, const Filter& filter,
                       std::vector<uint8_t>* match) {
  if (col.list_depth() != 0) {
    return Status::InvalidArgument("predicate on a list column");
  }
  match->assign(col.num_rows(), 0);
  if (col.domain() == ValueDomain::kBinary) {
    if (col.physical() != PhysicalType::kBinary) {
      return Status::InvalidArgument("predicate on unsupported column type");
    }
    return BinaryMatch(col, filter, match);
  }
  if (!HasPredicateOrder(col.physical())) {
    return Status::InvalidArgument(
        "predicate on unsupported column type (raw-bit float)");
  }
  if (filter.op == CompareOp::kIn) {
    return InMatchNumeric(col, filter.values, match);
  }
  if (filter.value.is_binary) {
    return Status::InvalidArgument(
        "byte-string constant compared against a numeric column");
  }
  const bool col_is_int = col.domain() == ValueDomain::kInt;
  const size_t n = match->size();
  if (col_is_int && !filter.value.is_real) {
    const std::vector<int64_t>& v = col.int_values();
    for (size_t r = 0; r < n; ++r) {
      if (!col.IsNull(r) && CompareRow<int64_t>(v[r], filter.op,
                                                filter.value.i)) {
        (*match)[r] = 1;
      }
    }
    return Status::OK();
  }
  const double c = filter.value.AsReal();
  for (size_t r = 0; r < n; ++r) {
    if (col.IsNull(r)) continue;
    double x = col_is_int ? static_cast<double>(col.int_values()[r])
                          : col.real_values()[r];
    if (CompareRow<double>(x, filter.op, c)) (*match)[r] = 1;
  }
  return Status::OK();
}

Status UpdatePredicateMask(const ColumnVector& col, CompareOp op,
                           const FilterValue& value,
                           std::vector<uint8_t>* mask) {
  if (mask->size() != col.num_rows()) {
    return Status::InvalidArgument("predicate mask size mismatch");
  }
  if (op == CompareOp::kIn) {
    return Status::InvalidArgument(
        "IN needs Filter::values; use FilterMatchMask");
  }
  Filter f("", op, value);
  std::vector<uint8_t> match;
  BULLION_RETURN_NOT_OK(FilterMatchMask(col, f, &match));
  for (size_t r = 0; r < mask->size(); ++r) {
    if (!match[r]) (*mask)[r] = 0;
  }
  return Status::OK();
}

Status UpdateClauseMask(const std::vector<const ColumnVector*>& cols,
                        const FilterClause& clause,
                        std::vector<uint8_t>* mask) {
  if (cols.size() != clause.any_of.size()) {
    return Status::InvalidArgument("clause term/column count mismatch");
  }
  if (clause.any_of.empty()) {
    return Status::InvalidArgument("empty filter clause");
  }
  // Union the term match vectors, then AND the union into the mask.
  std::vector<uint8_t> any(mask->size(), 0);
  std::vector<uint8_t> match;
  for (size_t t = 0; t < clause.any_of.size(); ++t) {
    if (cols[t]->num_rows() != mask->size()) {
      return Status::InvalidArgument("predicate mask size mismatch");
    }
    BULLION_RETURN_NOT_OK(FilterMatchMask(*cols[t], clause.any_of[t],
                                            &match));
    for (size_t r = 0; r < any.size(); ++r) any[r] |= match[r];
  }
  for (size_t r = 0; r < mask->size(); ++r) {
    if (!any[r]) (*mask)[r] = 0;
  }
  return Status::OK();
}

std::vector<uint32_t> SelectionFromMask(const std::vector<uint8_t>& mask) {
  std::vector<uint32_t> sel;
  for (size_t r = 0; r < mask.size(); ++r) {
    if (mask[r]) sel.push_back(static_cast<uint32_t>(r));
  }
  return sel;
}

std::vector<uint32_t> SortPermutationDescending(
    const std::vector<double>& scores) {
  std::vector<uint32_t> perm(scores.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return scores[a] > scores[b];
  });
  return perm;
}

}  // namespace bullion
