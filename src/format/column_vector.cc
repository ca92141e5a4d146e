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
  AppendRowFrom(*this, -1);  // zero/empty placeholder
  // EnsureValidity on a zero-row vector leaves the bitmap empty and the
  // placeholder append then skips it; resize covers both shapes.
  validity_.resize(rows_before + 1);
  validity_[rows_before] = 0;
}

Result<ColumnVector> ColumnVector::Permute(
    const std::vector<uint32_t>& perm) const {
  ColumnVector out(physical_, list_depth_);
  for (uint32_t src : perm) {
    if (src >= num_rows()) {
      return Status::InvalidArgument("gather index out of range");
    }
    if (IsNull(src)) {
      out.EnsureValidity();
      out.validity_.push_back(0);
    } else if (!out.validity_.empty()) {
      out.validity_.push_back(1);
    }
    switch (list_depth_) {
      case 0:
        switch (domain()) {
          case ValueDomain::kInt:
            out.AppendInt(int_values_[src]);
            break;
          case ValueDomain::kReal:
            out.AppendReal(real_values_[src]);
            break;
          case ValueDomain::kBinary:
            out.AppendBinary(bin_values_[src]);
            break;
        }
        break;
      case 1: {
        auto [b, e] = ListRange(src);
        switch (domain()) {
          case ValueDomain::kInt:
            out.AppendIntList(std::vector<int64_t>(int_values_.begin() + b,
                                                   int_values_.begin() + e));
            break;
          case ValueDomain::kReal:
            out.AppendRealList(std::vector<double>(real_values_.begin() + b,
                                                   real_values_.begin() + e));
            break;
          case ValueDomain::kBinary:
            out.AppendBinaryList(std::vector<std::string>(
                bin_values_.begin() + b, bin_values_.begin() + e));
            break;
        }
        break;
      }
      case 2: {
        int64_t inner_b = offsets_[0][src];
        int64_t inner_e = offsets_[0][src + 1];
        std::vector<std::vector<int64_t>> row;
        for (int64_t j = inner_b; j < inner_e; ++j) {
          int64_t vb = offsets_[1][j];
          int64_t ve = offsets_[1][j + 1];
          row.push_back(std::vector<int64_t>(int_values_.begin() + vb,
                                             int_values_.begin() + ve));
        }
        out.AppendIntListList(row);
        break;
      }
      default:
        return Status::NotImplemented("list depth > 2");
    }
  }
  return out;
}

void ColumnVector::AppendRowFrom(const ColumnVector& src, int64_t src_row) {
  if (src_row < 0) {
    // Placeholder for a physically removed row.
    switch (list_depth_) {
      case 0:
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
        break;
      case 1:
        switch (domain()) {
          case ValueDomain::kInt:
            AppendIntList({});
            break;
          case ValueDomain::kReal:
            AppendRealList({});
            break;
          case ValueDomain::kBinary:
            AppendBinaryList({});
            break;
        }
        break;
      default:
        AppendIntListList({});
        break;
    }
    // Erased-row placeholders are valid zeros (the §2.1 realignment
    // contract), not nulls.
    if (!validity_.empty()) validity_.push_back(1);
    return;
  }
  size_t r = static_cast<size_t>(src_row);
  if (src.IsNull(r)) {
    EnsureValidity();
    validity_.push_back(0);
  } else if (!validity_.empty()) {
    validity_.push_back(1);
  }
  switch (list_depth_) {
    case 0:
      switch (domain()) {
        case ValueDomain::kInt:
          AppendInt(src.int_values_[r]);
          break;
        case ValueDomain::kReal:
          AppendReal(src.real_values_[r]);
          break;
        case ValueDomain::kBinary:
          AppendBinary(src.bin_values_[r]);
          break;
      }
      break;
    case 1: {
      auto [b, e] = src.ListRange(r);
      switch (domain()) {
        case ValueDomain::kInt:
          AppendIntList(std::vector<int64_t>(src.int_values_.begin() + b,
                                             src.int_values_.begin() + e));
          break;
        case ValueDomain::kReal:
          AppendRealList(std::vector<double>(src.real_values_.begin() + b,
                                             src.real_values_.begin() + e));
          break;
        case ValueDomain::kBinary:
          AppendBinaryList(std::vector<std::string>(
              src.bin_values_.begin() + b, src.bin_values_.begin() + e));
          break;
      }
      break;
    }
    default: {
      int64_t ib = src.offsets_[0][r];
      int64_t ie = src.offsets_[0][r + 1];
      std::vector<std::vector<int64_t>> row;
      for (int64_t j = ib; j < ie; ++j) {
        int64_t vb = src.offsets_[1][j];
        int64_t ve = src.offsets_[1][j + 1];
        row.push_back(std::vector<int64_t>(src.int_values_.begin() + vb,
                                           src.int_values_.begin() + ve));
      }
      AppendIntListList(row);
      break;
    }
  }
}

void ColumnVector::AppendAllFrom(const ColumnVector& src) {
  // Bulk-append the value and offset arrays directly: concatenating
  // per-group decodes must not re-copy row by row (ConcatColumn on a
  // large column would double its allocations otherwise).
  const size_t rows_before = num_rows();
  if (!src.validity_.empty()) {
    if (validity_.empty()) validity_.assign(rows_before, 1);
    validity_.insert(validity_.end(), src.validity_.begin(),
                     src.validity_.end());
  } else if (!validity_.empty()) {
    validity_.resize(validity_.size() + src.num_rows(), 1);
  }
  int64_t leaf_base = static_cast<int64_t>(LeafCount());
  int_values_.insert(int_values_.end(), src.int_values_.begin(),
                     src.int_values_.end());
  real_values_.insert(real_values_.end(), src.real_values_.begin(),
                      src.real_values_.end());
  bin_values_.insert(bin_values_.end(), src.bin_values_.begin(),
                     src.bin_values_.end());
  if (list_depth_ == 0) return;
  // Inner-most offsets index leaf values; outer levels index the
  // items of the level below. Rebase each level by the item count it
  // held before the append (offset arrays carry a leading 0 sentinel).
  std::vector<int64_t> bases(list_depth_);
  bases[list_depth_ - 1] = leaf_base;
  for (int level = list_depth_ - 2; level >= 0; --level) {
    bases[level] = static_cast<int64_t>(offsets_[level + 1].size()) - 1;
  }
  for (int level = 0; level < list_depth_; ++level) {
    const auto& from = src.offsets_[level];
    for (size_t i = 1; i < from.size(); ++i) {
      offsets_[level].push_back(bases[level] + from[i]);
    }
  }
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
