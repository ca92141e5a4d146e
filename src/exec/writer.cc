#include "exec/writer.h"

#include <algorithm>
#include <utility>

namespace bullion {

namespace {

/// Fans the encode tasks of one staged row group out on `tasks`.
/// `pages` is resized to one slot per task and must stay valid (and
/// un-moved) until `tasks->Wait()` returns; distinct tasks write
/// distinct slots, so the encoded output is identical to encoding
/// serially regardless of scheduling. `report` (optional) receives one
/// work_hist sample + work_ns per page encode, recorded on the worker
/// that ran it.
void SubmitGroupEncode(std::shared_ptr<const StagedRowGroup> staged,
                       TaskGroup* tasks, std::vector<EncodedPage>* pages,
                       obs::PipelineReport* report) {
  pages->clear();
  pages->resize(staged->tasks.size());
  for (size_t i = 0; i < staged->tasks.size(); ++i) {
    tasks->Submit([staged, i, pages, report] {
      const uint64_t work_start = obs::NowNs();
      BULLION_ASSIGN_OR_RETURN(EncodedPage page, EncodeStagedPage(*staged, i));
      if (report != nullptr) {
        const uint64_t dt = obs::NowNs() - work_start;
        report->work_ns.fetch_add(dt, std::memory_order_relaxed);
        report->work_hist.Record(dt);
        report->batches.fetch_add(1, std::memory_order_relaxed);
        report->bytes.fetch_add(page.data.size(), std::memory_order_relaxed);
      }
      (*pages)[i] = std::move(page);
      return Status::OK();
    });
  }
}

}  // namespace

GroupEncodeWindow::GroupEncodeWindow(size_t threads, ThreadPool* pool,
                                     Commit commit,
                                     obs::PipelineReport* report)
    : pool_(pool), commit_(std::move(commit)), report_(report) {
  if (pool_ == nullptr && threads > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(threads);
    pool_ = owned_pool_.get();
  }
  size_t workers = pool_ != nullptr ? std::max<size_t>(pool_->num_threads(), 1)
                                    : 1;
  max_pending_ = 2 * workers;
}

void GroupEncodeWindow::Fail(Status st) {
  if (error_.ok()) error_ = std::move(st);
}

Status GroupEncodeWindow::Submit(StagedRowGroup staged) {
  BULLION_RETURN_NOT_OK(error_);
  // Emplace first, submit second: the encode tasks capture a pointer to
  // the pages vector, which must never move while they run. Deque
  // growth leaves existing elements in place.
  pending_.emplace_back();
  PendingGroup& pg = pending_.back();
  pg.staged = std::make_shared<const StagedRowGroup>(std::move(staged));
  pg.tasks = std::make_unique<TaskGroup>(pool_);
  SubmitGroupEncode(pg.staged, pg.tasks.get(), &pg.pages, report_);
  while (pending_.size() > max_pending_) {
    BULLION_RETURN_NOT_OK(DrainOne());
  }
  return Status::OK();
}

Status GroupEncodeWindow::DrainOne() {
  PendingGroup& pg = pending_.front();
  // Joining the window head is the producer's stall: encode workers
  // still busy when the window forces a commit.
  const uint64_t join_start = obs::NowNs();
  Status st = pg.tasks->Wait();
  const uint64_t commit_start = obs::NowNs();
  if (report_ != nullptr) {
    report_->stall_ns.fetch_add(commit_start - join_start,
                                std::memory_order_relaxed);
  }
  if (st.ok()) st = commit_(*pg.staged, pg.pages);
  if (report_ != nullptr) {
    report_->emit_ns.fetch_add(obs::NowNs() - commit_start,
                               std::memory_order_relaxed);
    if (st.ok()) {
      report_->units.fetch_add(1, std::memory_order_relaxed);
      report_->rows.fetch_add(pg.staged->row_count, std::memory_order_relaxed);
    }
  }
  pending_.pop_front();
  Fail(st);
  return st;
}

Status GroupEncodeWindow::Finish() {
  while (!pending_.empty()) {
    if (error_.ok()) {
      // A failure is sticky in error_, returned below.
      DrainOne().IgnoreError();
    } else {
      // Something already failed: join the stragglers without writing.
      pending_.front().tasks->Wait().IgnoreError();
      pending_.pop_front();
    }
  }
  return error_;
}

ParallelTableWriter::ParallelTableWriter(Schema schema, WritableFile* file,
                                         WriterOptions options, size_t threads,
                                         ThreadPool* pool,
                                         obs::PipelineReport* report)
    : writer_(std::move(schema), file, std::move(options)),
      window_(threads, pool,
              [this](const StagedRowGroup& group,
                     const std::vector<EncodedPage>& pages) {
                return writer_.CommitEncodedGroup(group, pages);
              },
              report),
      report_(report) {
  start_ns_ = obs::NowNs();
}

Status ParallelTableWriter::WriteRowGroup(std::vector<ColumnVector> columns) {
  return WriteRowGroup(
      std::make_shared<const std::vector<ColumnVector>>(std::move(columns)));
}

Status ParallelTableWriter::WriteRowGroup(
    std::shared_ptr<const std::vector<ColumnVector>> columns) {
  BULLION_RETURN_NOT_OK(window_.status());
  if (finished_) return Status::InvalidArgument("writer already finished");
  // Stage failures touch no file/footer state and are not sticky — like
  // the serial TableWriter, the writer stays usable after a bad batch.
  const uint64_t stage_start = obs::NowNs();
  Result<StagedRowGroup> staged = writer_.StageRowGroup(std::move(columns));
  if (report_ != nullptr) {
    report_->prepare_ns.fetch_add(obs::NowNs() - stage_start,
                                  std::memory_order_relaxed);
  }
  BULLION_RETURN_NOT_OK(staged.status());
  return window_.Submit(std::move(*staged));
}

Status ParallelTableWriter::Finish() {
  if (finished_) return Status::InvalidArgument("writer already finished");
  finished_ = true;
  Status st = window_.Finish();
  if (report_ != nullptr) {
    report_->wall_ns.fetch_add(obs::NowNs() - start_ns_,
                               std::memory_order_relaxed);
  }
  if (!st.ok()) return st;
  return writer_.Finish();
}

}  // namespace bullion
