#include "core/scan.h"

namespace bullion {

uint64_t MaterializedScanResult::num_rows() const {
  uint64_t rows = 0;
  for (const auto& group : groups) {
    if (!group.empty()) rows += group[0].num_rows();
  }
  return rows;
}

Result<ColumnVector> MaterializedScanResult::ConcatColumn(size_t slot) const {
  if (slot >= columns.size()) {
    return Status::InvalidArgument("projection slot out of range");
  }
  ColumnVector out(static_cast<PhysicalType>(column_records[slot].physical),
                   column_records[slot].list_depth);
  for (const auto& group : groups) {
    out.AppendAllFrom(group[slot]);
  }
  return out;
}

Result<MaterializedScanResult> ScanStreamBuilder::Collect() const {
  BULLION_ASSIGN_OR_RETURN(std::unique_ptr<BatchStream> stream, Stream());
  MaterializedScanResult result;
  result.columns = stream->columns();
  result.column_records = stream->column_records();
  result.group_begin = stream->group_begin();
  result.groups.reserve(stream->num_units());
  RowBatch batch;
  for (;;) {
    BULLION_ASSIGN_OR_RETURN(bool more, stream->Next(&batch));
    if (!more) break;
    result.groups.push_back(std::move(batch.columns));
  }
  return result;
}

}  // namespace bullion
