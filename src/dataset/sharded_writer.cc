#include "dataset/sharded_writer.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace bullion {

Status ValidateShardedWriterOptions(const ShardedWriterOptions& options,
                                    const Schema& schema) {
  if (options.target_rows_per_shard == 0) {
    return Status::InvalidArgument("target_rows_per_shard must be positive");
  }
  if (options.rows_per_group == 0) {
    return Status::InvalidArgument("rows_per_group must be positive");
  }
  BULLION_RETURN_NOT_OK(ValidateWriterOptions(options.writer, schema));
  return ValidateDeletableLeaves(options.writer, schema);
}

ShardedTableWriter::ShardedTableWriter(Schema schema,
                                       ShardedWriterOptions options,
                                       FileOpener opener, ThreadPool* pool)
    : schema_(std::move(schema)),
      options_(std::move(options)),
      opener_(std::move(opener)),
      init_status_(ValidateShardedWriterOptions(options_, schema_)),
      window_(options_.threads, pool,
              [this](const StagedRowGroup& staged,
                     const std::vector<EncodedPage>& pages) {
                return CommitGroup(staged, pages);
              }) {
  pending_batch_.reserve(schema_.num_leaves());
  for (const LeafColumn& leaf : schema_.leaves()) {
    pending_batch_.push_back(ColumnVector::ForLeaf(leaf));
  }
}

std::string ShardedTableWriter::ShardName(const std::string& base,
                                          size_t index) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".shard-%05zu", index);
  return base + suffix;
}

std::string ShardedTableWriter::CurrentShardName() const {
  return ShardName(options_.base_name,
                   options_.first_shard_index + shards_.size());
}

Status ShardedTableWriter::SubmitGroup() {
  if (pending_rows_ == 0) return Status::OK();
  auto batch = std::make_shared<const std::vector<ColumnVector>>(
      std::move(pending_batch_));
  pending_batch_.clear();
  pending_batch_.reserve(schema_.num_leaves());
  for (const LeafColumn& leaf : schema_.leaves()) {
    pending_batch_.push_back(ColumnVector::ForLeaf(leaf));
  }
  uint64_t rows = pending_rows_;
  pending_rows_ = 0;

  // Sticky on failure: the buffered rows were already consumed, so
  // continuing would silently drop them from the stream.
  Result<StagedRowGroup> staged =
      StageValidatedRowGroup(schema_, options_.writer, std::move(batch));
  if (!staged.ok()) {
    window_.Fail(staged.status());
    return window_.status();
  }
  total_rows_ += rows;
  return window_.Submit(std::move(*staged));
}

Status ShardedTableWriter::CommitGroup(const StagedRowGroup& staged,
                                       const std::vector<EncodedPage>& pages) {
  if (shard_writer_ == nullptr) {
    BULLION_ASSIGN_OR_RETURN(shard_file_, opener_(CurrentShardName()));
    shard_writer_ = std::make_unique<TableWriter>(schema_, shard_file_.get(),
                                                  options_.writer);
    shard_rows_ = 0;
    shard_groups_ = 0;
  }
  BULLION_RETURN_NOT_OK(shard_writer_->CommitEncodedGroup(staged, pages));
  shard_rows_ += staged.row_count;
  ++shard_groups_;
  // Commits run in row-group order, so the boundary is pure row-count
  // arithmetic, identical at any thread count. Shards close only at
  // group boundaries, so every shard is a complete Bullion file.
  return shard_rows_ >= options_.target_rows_per_shard ? CloseShard()
                                                       : Status::OK();
}

Status ShardedTableWriter::CloseShard() {
  // Aggregate the shard's per-column zone maps before Finish so the
  // manifest publishes what the footer's chunk stats prove — the
  // shard-level half of predicate pushdown.
  std::vector<ShardColumnStats> column_stats;
  std::vector<ZoneMap> zones = shard_writer_->AggregatedColumnStats();
  for (uint32_t c = 0; c < zones.size(); ++c) {
    if (zones[c].valid) column_stats.push_back(ShardColumnStats{c, zones[c]});
  }
  // Same for the shard-aggregate Bloom filters: the manifest-level
  // membership check that lets a point lookup skip the shard without
  // opening its footer.
  std::vector<ShardColumnBloom> column_blooms;
  std::vector<std::string> blooms = shard_writer_->AggregatedColumnBlooms();
  for (uint32_t c = 0; c < blooms.size(); ++c) {
    if (!blooms[c].empty()) {
      column_blooms.push_back(ShardColumnBloom{c, std::move(blooms[c])});
    }
  }
  BULLION_RETURN_NOT_OK(shard_writer_->Finish());
  BULLION_RETURN_NOT_OK(shard_file_->Flush());
  shards_.push_back(ShardInfo{
      CurrentShardName(), shard_rows_, shard_groups_, /*deleted_rows=*/0,
      /*generation=*/0, std::move(column_stats), std::move(column_blooms)});
  shard_writer_.reset();
  shard_file_.reset();
  return Status::OK();
}

Status ShardedTableWriter::Append(const std::vector<ColumnVector>& columns) {
  BULLION_RETURN_NOT_OK(init_status_);
  BULLION_RETURN_NOT_OK(window_.status());
  if (finished_) return Status::InvalidArgument("writer already finished");
  if (columns.size() != schema_.num_leaves()) {
    return Status::InvalidArgument("batch has wrong leaf count");
  }
  size_t rows = columns.empty() ? 0 : columns[0].num_rows();
  for (size_t c = 0; c < columns.size(); ++c) {
    BULLION_RETURN_NOT_OK(
        CheckColumnMatchesLeaf(schema_.leaves()[c], columns[c]));
    if (columns[c].num_rows() != rows) {
      return Status::InvalidArgument("batch columns disagree on row count");
    }
  }
  size_t row = 0;
  while (row < rows) {
    size_t take = std::min<size_t>(options_.rows_per_group - pending_rows_,
                                   rows - row);
    for (size_t c = 0; c < columns.size(); ++c) {
      pending_batch_[c].AppendRowRange(columns[c], row, row + take);
    }
    pending_rows_ += take;
    row += take;
    if (pending_rows_ == options_.rows_per_group) {
      BULLION_RETURN_NOT_OK(SubmitGroup());
    }
  }
  return Status::OK();
}

Result<ShardManifest> ShardedTableWriter::Finish() {
  if (finished_) return Status::InvalidArgument("writer already finished");
  finished_ = true;
  BULLION_RETURN_NOT_OK(init_status_);
  // A failed tail submit is sticky in the window, so Finish() then
  // joins the stragglers without committing and returns it.
  if (window_.status().ok()) SubmitGroup().IgnoreError();
  Status st = window_.Finish();
  if (st.ok() && shard_writer_ != nullptr) {
    st = CloseShard();  // partial tail shard
  }
  BULLION_RETURN_NOT_OK(st);
  return ShardManifest(std::move(shards_));
}

}  // namespace bullion
