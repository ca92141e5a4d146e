// ParallelTableWriter / WriteBuilder: the parallel write execution
// layer over TableWriter's stage → encode → commit split.
//
// Each appended row group is staged on the calling thread (pure
// metadata + quality-sort work), then its page-encode tasks fan out
// across a ThreadPool — one task per page, each writing its own
// preallocated EncodedPage slot. Commits happen on the calling thread
// in row-group order, appending the encoded pages in deterministic
// placement order, so the file is byte-identical to the serial
// TableWriter at any thread count; with threads <= 1 and no pool the
// tasks run inline and the writer literally is the serial path.
//
// GroupEncodeWindow holds the row groups that are staged-or-encoding
// at once: 2 × encode workers, so encode of group k+1..k+W overlaps
// commit of group k. ParallelTableWriter and the sharded
// ShardedTableWriter (dataset/sharded_writer.h) both run on it, each
// supplying its own commit step.
//
// Fluent entry point:
//
//   auto writer = WriteBuilder(schema, file)
//                     .RowsPerPage(4096)
//                     .Threads(8)                // encode workers
//                     .Build();
//   (*writer)->WriteRowGroup(std::move(batch));  // any number of times
//   (*writer)->Finish();

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "exec/thread_pool.h"
#include "format/writer.h"
#include "obs/pipeline_report.h"

namespace bullion {

/// \brief The write-side in-flight window: row groups whose page
/// encodes run on a pool while earlier groups commit in order.
///
/// Submit() fans a staged group's page encodes out and then commits,
/// oldest first, every group beyond the window of 2 × encode workers.
/// The owner's commit step runs on the producer thread in submission
/// order, so the bytes never depend on scheduling. The
/// first failure (a commit's, or one recorded with Fail()) is sticky:
/// later Submit() calls return it and Finish() joins the stragglers
/// without committing them.
///
/// Not thread-safe itself: one producer thread drives it.
class GroupEncodeWindow {
 public:
  /// Commits one encoded group: pages[i] is the encoding of
  /// staged.tasks[i].
  using Commit = std::function<Status(const StagedRowGroup& staged,
                                      const std::vector<EncodedPage>& pages)>;

  /// Encodes on `pool`; if it is null and `threads` > 1, a private pool
  /// of `threads` workers lives as long as the window. With neither,
  /// encodes run inline in Submit(). `commit` receives every group in
  /// submission order. `report` (optional) receives one work_hist
  /// sample + work_ns per page encode, joining the window head →
  /// stall_ns, commits → emit_ns/units/rows.
  GroupEncodeWindow(size_t threads, ThreadPool* pool, Commit commit,
                    obs::PipelineReport* report = nullptr);

  /// Encode tasks hold pointers into the pending groups, and the commit
  /// step usually captures its writer.
  GroupEncodeWindow(const GroupEncodeWindow&) = delete;
  GroupEncodeWindow& operator=(const GroupEncodeWindow&) = delete;

  /// Sticky first failure (OK until something failed).
  const Status& status() const { return error_; }
  /// Records `st` as the sticky failure unless one is already set.
  void Fail(Status st);

  /// Fans `staged`'s page encodes out, then commits the groups that
  /// fall out of the window.
  Status Submit(StagedRowGroup staged);

  /// Commits every pending group in order (after a failure, joins them
  /// without committing) and returns the sticky status.
  Status Finish();

 private:
  struct PendingGroup {
    std::shared_ptr<const StagedRowGroup> staged;
    std::vector<EncodedPage> pages;
    std::unique_ptr<TaskGroup> tasks;
  };

  /// Joins the oldest pending group's encodes and commits it.
  Status DrainOne();

  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;
  size_t max_pending_;
  Commit commit_;
  obs::PipelineReport* report_;
  /// Declared after the pool: destroyed first, joining any stragglers.
  std::deque<PendingGroup> pending_;
  Status error_;
};

/// \brief Pipelined parallel writer over one Bullion file.
///
/// Not thread-safe itself: one producer thread appends row groups and
/// calls Finish(); the parallelism is internal (page encoding).
class ParallelTableWriter {
 public:
  /// Writes through `file` with `options`, encoding on `pool` or, if it
  /// is null and `threads` > 1, on a writer-private pool of `threads`
  /// workers. `report` (optional) records the write pipeline's stage
  /// timing: stage → prepare_ns, page encodes → work_ns/work_hist,
  /// commit → emit_ns, joining the window head → stall_ns,
  /// construction → Finish() → wall_ns.
  ParallelTableWriter(Schema schema, WritableFile* file,
                      WriterOptions options, size_t threads = 1,
                      ThreadPool* pool = nullptr,
                      obs::PipelineReport* report = nullptr);

  /// Stages `columns` (one ColumnVector per schema leaf, equal row
  /// counts), fans its page encodes out, and commits any groups that
  /// fall out of the in-flight window. Takes the batch by value: the
  /// encode stage may still be reading it after this call returns.
  Status WriteRowGroup(std::vector<ColumnVector> columns);

  /// As above without copying: the shared batch must stay unchanged
  /// until Finish() returns. Callers whose batches outlive the writer
  /// (e.g. WriteTableFile) borrow via a no-op-deleter shared_ptr.
  Status WriteRowGroup(std::shared_ptr<const std::vector<ColumnVector>> columns);

  /// Drains the window (encode + commit every pending group), then
  /// writes the footer and trailer. Must be called exactly once.
  Status Finish();

  /// Rows committed so far (pending groups not included).
  uint64_t num_rows() const { return writer_.num_rows(); }
  /// Per-column zone maps aggregated over the committed groups (see
  /// TableWriter::AggregatedColumnStats).
  std::vector<ZoneMap> AggregatedColumnStats() const {
    return writer_.AggregatedColumnStats();
  }
  /// Per-column shard-aggregate Bloom filters over the committed groups
  /// (see TableWriter::AggregatedColumnBlooms).
  std::vector<std::string> AggregatedColumnBlooms() const {
    return writer_.AggregatedColumnBlooms();
  }

 private:
  TableWriter writer_;
  GroupEncodeWindow window_;
  bool finished_ = false;
  obs::PipelineReport* report_;
  uint64_t start_ns_ = 0;  // construction (report wall time)
};

/// \brief Fluent builder for parallel single-file writes.
class WriteBuilder {
 public:
  WriteBuilder(Schema schema, WritableFile* file)
      : schema_(std::move(schema)), file_(file) {}

  /// Full writer options (page size, encodings, placement, ...).
  WriteBuilder& Options(WriterOptions options) {
    options_ = std::move(options);
    return *this;
  }
  /// Rows per page (shorthand for Options).
  WriteBuilder& RowsPerPage(uint32_t rows) {
    options_.rows_per_page = rows;
    return *this;
  }
  /// Encode worker threads (<= 1 encodes inline on the calling thread).
  WriteBuilder& Threads(size_t n) {
    threads_ = n;
    return *this;
  }
  /// Run encodes on a shared pool instead of a writer-private one.
  WriteBuilder& Pool(ThreadPool* pool) {
    pool_ = pool;
    return *this;
  }
  /// Count committed pages into `stats` (shorthand for Options).
  WriteBuilder& Stats(IoStats* stats) {
    options_.stats = stats;
    return *this;
  }
  /// Record stage timing, throughput, and the per-page encode latency
  /// distribution into `report` (obs/pipeline_report.h). Must outlive
  /// the writer; accumulates across runs until Reset().
  WriteBuilder& Report(obs::PipelineReport* report) {
    report_ = report;
    return *this;
  }

  /// Validates the options and the deletable leaves, then constructs
  /// the writer.
  Result<std::unique_ptr<ParallelTableWriter>> Build() const {
    BULLION_RETURN_NOT_OK(ValidateWriterOptions(options_, schema_));
    BULLION_RETURN_NOT_OK(ValidateDeletableLeaves(options_, schema_));
    return std::make_unique<ParallelTableWriter>(
        schema_, file_, options_, threads_, pool_, report_);
  }

 private:
  Schema schema_;
  WritableFile* file_;
  WriterOptions options_;
  size_t threads_ = 1;
  ThreadPool* pool_ = nullptr;
  obs::PipelineReport* report_ = nullptr;
};

}  // namespace bullion
