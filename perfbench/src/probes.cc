// Layer probes of the traced run: timed calls into each layer's public
// functions, on the workload's own table and dataset, so every
// per-layer metric exists on every workload. A probe the workload's
// own ops already measure (ProbeTarget::covered) is skipped.

#include <algorithm>
#include <cstring>
#include <future>

#include "perfbench/src/bench.h"

namespace perfbench {

using bullion::Buffer;
using bullion::ColumnVector;
using bullion::Result;
using bullion::ShardManifest;
using bullion::ShardedTableReader;
using bullion::Slice;
using bullion::Status;

namespace {

constexpr size_t kOpenRepeats = 5;
constexpr size_t kKeysPerKind = 32;
constexpr uint32_t kProbeGroups = 2;
constexpr uint32_t kScanGroups = 8;
constexpr size_t kDeleteUsers = 16;

// ------------------------------------------------------------ encoding

void ProbeEncoding(const std::vector<ColumnVector>& group, uint32_t rows_per_page,
                   std::map<std::string, uint64_t>* counters) {
  for (const ColumnVector& col : group) {
    const size_t width = static_cast<size_t>(bullion::ByteWidth(col.physical()));
    for (size_t r0 = 0; r0 < col.num_rows(); r0 += rows_per_page) {
      const size_t r1 = std::min<size_t>(r0 + rows_per_page, col.num_rows());
      auto [b, e] = LeafRange(col, r0, r1);
      if (e <= b) continue;
      const size_t n = e - b;
      uint64_t bytes = 0;
      size_t encoded = 0;
      bool same = false;
      switch (col.domain()) {
        case bullion::ValueDomain::kInt: {
          std::span<const int64_t> v(col.int_values().data() + b, n);
          bytes = n * width;
          Result<Buffer> blk = Status::Unknown("not run");
          {
            ScopedSpan span("encoding.select_encode.int64");
            span.set_bytes(bytes);
            blk = bullion::EncodeInt64Column(v);
          }
          // Encode-only: the codec EncodeInt64ColumnWithDecision picks,
          // forced at the top level (child streams still cascade).
          // CascadeOptions::allowed cannot express this: it recurses
          // into children, and a Dictionary-only cascade never ends.
          bullion::SelectionDecision d{};
          if (!blk.ok() || !bullion::EncodeInt64ColumnWithDecision(v, {}, &d).ok()) break;
          const bullion::CascadeOptions defaults;
          Status forced_status;
          {
            ScopedSpan span("encoding.encode_only");
            bullion::CascadeContext ctx(defaults);
            bullion::BufferBuilder forced;
            forced_status = bullion::EncodeIntBlockAs(d.chosen, v, &ctx, &forced);
            span.Stop();
            // A failed encode is a probe failure, not a fast encode.
            if (forced_status.ok()) span.set_bytes(bytes);
          }
          if (!forced_status.ok()) (*counters)["probe.failures"] += 1;
          std::vector<int64_t> out;
          {
            ScopedSpan span("encoding.decode");
            span.set_bytes(bytes);
            same = bullion::DecodeInt64Column(blk->AsSlice(), &out).ok();
          }
          same = same && std::equal(v.begin(), v.end(), out.begin(), out.end());
          encoded = blk->size();
          break;
        }
        case bullion::ValueDomain::kReal: {
          std::vector<double> v(col.real_values().begin() + b, col.real_values().begin() + e);
          bytes = n * width;
          Result<Buffer> blk = Status::Unknown("not run");
          {
            ScopedSpan span("encoding.select_encode.double");
            span.set_bytes(bytes);
            blk = bullion::EncodeDoubleColumn(v);
          }
          if (!blk.ok()) break;
          std::vector<double> out;
          {
            ScopedSpan span("encoding.decode");
            span.set_bytes(bytes);
            same = bullion::DecodeDoubleColumn(blk->AsSlice(), &out).ok();
          }
          same = same && out.size() == v.size() &&
                 std::memcmp(out.data(), v.data(), v.size() * sizeof(double)) == 0;
          encoded = blk->size();
          break;
        }
        case bullion::ValueDomain::kBinary: {
          std::span<const std::string> v(col.bin_values().data() + b, n);
          for (const std::string& s : v) bytes += s.size();
          Result<Buffer> blk = Status::Unknown("not run");
          {
            ScopedSpan span("encoding.select_encode.string");
            span.set_bytes(bytes);
            blk = bullion::EncodeStringColumn(v);
          }
          if (!blk.ok()) break;
          std::vector<std::string> out;
          {
            ScopedSpan span("encoding.decode");
            span.set_bytes(bytes);
            same = bullion::DecodeStringColumn(blk->AsSlice(), &out).ok();
          }
          same = same && std::equal(v.begin(), v.end(), out.begin(), out.end());
          encoded = blk->size();
          break;
        }
      }
      (*counters)["encoding.user_bytes"] += bytes;
      (*counters)["encoding.encoded_bytes"] += encoded;
      (*counters)["probe.failures"] += same ? 0 : 1;
    }
  }
}

// -------------------------------------------------------- format write

Status ProbeFormatWrite(const ProbeTarget& t, const CountedDir& dir,
                        bullion::AsyncIoService* aio) {
  bullion::WriterOptions wo;
  wo.rows_per_page = t.spec->rows_per_page;
  wo.aio = aio;
  BULLION_ASSIGN_OR_RETURN(auto file, dir.Create("probe-write.bullion"));
  bullion::TableWriter writer(t.table->schema, file.get(), wo);
  const uint32_t rpg = t.spec->rows_per_group;
  for (uint32_t g = 0; g < kProbeGroups && uint64_t(g) * rpg < t.table->rows(); ++g) {
    auto batch = std::make_shared<const std::vector<ColumnVector>>(SliceRows(
        t.table->cols, uint64_t(g) * rpg,
        std::min<uint64_t>(uint64_t(g + 1) * rpg, t.table->rows())));
    Result<bullion::StagedRowGroup> staged = Status::Unknown("not run");
    {
      ScopedSpan span("format.stage");
      staged = writer.StageRowGroup(batch);
    }
    BULLION_RETURN_NOT_OK(staged.status());
    std::vector<bullion::EncodedPage> pages;
    pages.reserve(staged->num_tasks());
    for (size_t i = 0; i < staged->num_tasks(); ++i) {
      Result<bullion::EncodedPage> page = Status::Unknown("not run");
      {
        ScopedSpan span("format.encode_page");
        page = bullion::EncodeStagedPage(*staged, i);
      }
      BULLION_RETURN_NOT_OK(page.status());
      pages.push_back(std::move(*page));
    }
    ScopedSpan span("format.commit");
    BULLION_RETURN_NOT_OK(writer.CommitEncodedGroup(*staged, pages));
  }
  return writer.Finish();
}

// --------------------------------------------------------- format read

Status Fetch(bullion::AsyncIoService* aio, const bullion::RandomAccessFile* file,
             uint64_t offset, size_t len, Buffer* out) {
  std::promise<Status> landed;
  std::future<Status> done = landed.get_future();
  bullion::AioRead read;
  read.file = file;
  read.offset = offset;
  read.len = len;
  read.out = out;
  read.done = [&landed](Status s) { landed.set_value(std::move(s)); };
  std::vector<bullion::AioRead> batch;
  batch.push_back(std::move(read));
  aio->SubmitReadBatch(std::move(batch));
  return done.get();
}

Status ProbeFormatRead(const ProbeTarget& t, const CountedDir& dir,
                       bullion::AsyncIoService* aio) {
  std::unique_ptr<bullion::TableReader> reader;
  for (size_t s = 0; s < t.manifest.num_shards(); ++s) {
    for (size_t k = 0; k < kOpenRepeats; ++k) {
      BULLION_ASSIGN_OR_RETURN(auto file, dir.OpenRead(t.manifest.shard(s).name));
      Result<std::unique_ptr<bullion::TableReader>> r = Status::Unknown("not run");
      {
        ScopedSpan span("format.open");
        r = bullion::TableReader::Open(std::move(file));
      }
      BULLION_RETURN_NOT_OK(r.status());
      if (s == 0) reader = std::move(*r);
    }
  }
  if (reader == nullptr) return Status::OK();
  const bullion::ReadOptions ro;
  const std::vector<uint32_t>& proj = t.projection;
  for (uint32_t g = 0; g < reader->num_row_groups(); ++g) {
    Result<bullion::ReadPlan> plan = Status::Unknown("not run");
    {
      ScopedSpan span("format.plan");
      plan = reader->PlanProjection(g, proj, ro);
    }
    BULLION_RETURN_NOT_OK(plan.status());
    for (const bullion::CoalescedRead& read : plan->reads) {
      Buffer buf;
      {
        ScopedSpan span("io.fetch");
        BULLION_RETURN_NOT_OK(Fetch(aio, reader->file(), read.begin, read.size(), &buf));
      }
      std::vector<ColumnVector> out(proj.size());
      ScopedSpan span("format.decode");
      BULLION_RETURN_NOT_OK(reader->DecodeCoalescedRead(
          g, proj, read, Slice(buf.data(), buf.size()), ro, &out));
      span.Stop();
      uint64_t bytes = 0;
      for (const bullion::ChunkRequest& c : read.chunks) bytes += UserBytes(out[c.user_index]);
      span.set_bytes(bytes);
    }
    // Page-run decode (the late-materialization path), one page at a time.
    for (uint32_t c : proj) {
      if (c == 0) continue;  // the key column is fetched whole
      auto [first, last] = reader->footer().chunk_pages(g, c);
      for (uint32_t p = 0; p < last - first; ++p) {
        BULLION_ASSIGN_OR_RETURN(auto extent, reader->PageRunExtent(g, c, p, p + 1));
        Buffer buf;
        BULLION_RETURN_NOT_OK(
            reader->file()->Read(extent.first, extent.second - extent.first, &buf));
        ColumnVector col;
        ScopedSpan span("format.page_run_decode");
        BULLION_RETURN_NOT_OK(reader->DecodePageRun(
            g, c, p, p + 1, Slice(buf.data(), buf.size()), ro, &col));
        span.Stop();
        span.set_bytes(UserBytes(col));
      }
    }
  }
  return Status::OK();
}

// ------------------------------------------------------ exec / dataset

Status ProbeDatasetAndExec(const ProbeTarget& t, const CountedDir& dir,
                           bullion::AsyncIoService* aio,
                           std::map<std::string, uint64_t>* counters) {
  std::unique_ptr<ShardedTableReader> ds;
  for (size_t k = 0; k < kOpenRepeats; ++k) {
    Result<std::unique_ptr<ShardedTableReader>> opened = Status::Unknown("not run");
    {
      ScopedSpan span("dataset.open");
      opened = ShardedTableReader::Open(t.manifest, dir.ReadOpener());
    }
    BULLION_RETURN_NOT_OK(opened.status());
    ds = std::move(*opened);  // the previous reader closes outside the span
  }
  const std::vector<std::string> names = LeafNames(t.table->schema, t.projection);
  const uint64_t users = t.table->user_rows.size();
  for (size_t i = 0; i < 2 * kKeysPerKind; ++i) {
    const bool miss = i % 2 == 1;
    const uint64_t user = (i / 2) * (users / kKeysPerKind) % users;
    const int64_t key = Table::UidOf(user) + (miss ? 1 : 0);
    {
      Result<std::unique_ptr<bullion::BatchStream>> stream = Status::Unknown("not run");
      {
        ScopedSpan span("exec.stream_open");
        stream = bullion::Scan(ds.get())
                     .Columns(names)
                     .Filter("uid", bullion::CompareOp::kEq, key)
                     .LateMaterialize()
                     .Aio(aio)
                     .Stream();
      }
      BULLION_RETURN_NOT_OK(stream.status());
    }
    if (t.covered.count("serve.lookup")) continue;
    const uint64_t reads0 = dir.stats()->read_ops.load();
    Result<bullion::LookupResult> r = Status::Unknown("not run");
    {
      ScopedSpan span(miss ? "serve.lookup.miss" : "serve.lookup.hit");
      r = bullion::Lookup(ds.get()).Key("uid", key).Columns(names).Aio(aio).Run();
    }
    BULLION_RETURN_NOT_OK(r.status());
    if (miss) {
      (*counters)["serve.misses"] += 1;
      (*counters)["serve.miss_preads"] += dir.stats()->read_ops.load() - reads0;
    }
    const size_t want = miss ? 0 : t.table->user_rows[user].size();
    (*counters)["probe.failures"] += r->num_rows() == want ? 0 : 1;
  }

  if (!t.covered.count("exec.next")) {
    BULLION_ASSIGN_OR_RETURN(
        auto stream, bullion::Scan(ds.get())
                         .Columns(names)
                         .RowGroups(0, kScanGroups)
                         .Threads(kWorkerThreads)
                         .BatchRows(512)
                         .Aio(aio)
                         .Stream());
    bullion::RowBatch batch;
    for (;;) {
      Result<bool> more = false;
      {
        ScopedSpan span("exec.next");
        more = stream->Next(&batch);
      }
      BULLION_RETURN_NOT_OK(more.status());
      if (!*more) break;
    }
  }
  return Status::OK();
}

Status ProbeShardedWrite(const ProbeTarget& t, const CountedDir& dir,
                         bullion::AsyncIoService* aio,
                         std::map<std::string, uint64_t>* counters) {
  const IoStatsSnapshot before = dir.stats()->Snapshot();
  bullion::ShardedWriterOptions opts =
      DatasetWriterOptions(*t.spec, aio, dir.stats(), "probe-append");
  opts.threads = kWorkerThreads;
  bullion::ShardedTableWriter writer(t.table->schema, opts, dir.WriteOpener());
  const uint32_t rpg = t.spec->rows_per_group;
  uint64_t user_bytes = 0;
  for (uint32_t g = 0; g < 2 * kProbeGroups && uint64_t(g) * rpg < t.table->rows(); ++g) {
    std::vector<ColumnVector> batch = SliceRows(
        t.table->cols, uint64_t(g) * rpg,
        std::min<uint64_t>(uint64_t(g + 1) * rpg, t.table->rows()));
    const uint64_t bytes = UserBytes(batch);
    user_bytes += bytes;
    ScopedSpan span("exec.append");
    span.set_bytes(bytes);
    BULLION_RETURN_NOT_OK(writer.Append(batch));
  }
  {
    ScopedSpan span("dataset.finish");
    BULLION_RETURN_NOT_OK(writer.Finish().status());
  }
  const IoStatsSnapshot d = IoStatsDelta(before, dir.stats()->Snapshot());
  (*counters)["io.write_calls"] += d.write_calls;
  (*counters)["io.write_user_bytes"] += user_bytes;
  (*counters)["format.pages_encoded"] += d.pages_encoded;
  return Status::OK();
}

// ---------------------------------------------------- delete + compact

Status ProbeDeleteAndCompact(const ProbeTarget& t, const CountedDir& src,
                             const CountedDir& dir,
                             std::map<std::string, uint64_t>* counters) {
  bullion::ShardInfo info = t.manifest.shard(0);
  const std::string name = "probe-delete.shard-00000";
  BULLION_RETURN_NOT_OK(dir.CopyFile(src, info.name, name));
  info.name = name;
  const ShardManifest manifest({info});

  BULLION_ASSIGN_OR_RETURN(auto reader, bullion::TableReader::Open(*dir.OpenRead(name)));
  const bullion::FooterView& f = reader->footer();
  std::vector<int64_t> uids;  // uid of every row of the shard
  for (uint32_t g = 0; g < f.num_row_groups(); ++g) {
    ColumnVector col;
    BULLION_RETURN_NOT_OK(reader->ReadColumnChunk(g, 0, bullion::ReadOptions{}, &col));
    uids.insert(uids.end(), col.int_values().begin(), col.int_values().end());
  }
  std::vector<int64_t> victims;
  for (int64_t uid : uids) {
    if (victims.size() == kDeleteUsers) break;
    if (std::find(victims.begin(), victims.end(), uid) == victims.end()) victims.push_back(uid);
  }
  BULLION_ASSIGN_OR_RETURN(auto rf, dir.OpenRead(name));
  BULLION_ASSIGN_OR_RETURN(auto uf, dir.OpenUpdate(name));
  bullion::DeleteExecutor exec(rf.get(), uf.get(), f);
  for (int64_t uid : victims) {
    std::vector<uint64_t> rows;
    for (size_t r = 0; r < uids.size(); ++r) {
      if (uids[r] == uid) rows.push_back(r);
    }
    Result<bullion::DeleteReport> rep = Status::Unknown("not run");
    {
      ScopedSpan span("format.delete");
      rep = exec.DeleteRows(rows, bullion::ComplianceLevel::kLevel2);
    }
    BULLION_RETURN_NOT_OK(rep.status());
    (*counters)["format.delete_calls"] += 1;
    (*counters)["format.delete_rows"] += rep->rows_deleted;
    (*counters)["format.delete_bytes_written"] += rep->total_bytes_written();
    (*counters)["format.delete_pages_rewritten"] += rep->pages_rewritten;
  }

  bullion::DatasetCompactor compactor(
      dir.ReadOpener(), dir.WriteOpener(),
      [&dir](const std::string& n) { return dir.Remove(n); });
  bullion::DatasetCompactionOptions copts;
  copts.min_deleted_fraction = 1e-9;
  copts.threads = kWorkerThreads;
  Result<bullion::DatasetCompactionReport> rep = Status::Unknown("not run");
  {
    ScopedSpan span("dataset.compact");
    rep = compactor.Compact(manifest, copts);
  }
  BULLION_RETURN_NOT_OK(rep.status());
  (*counters)["dataset.compact_calls"] += 1;
  (*counters)["dataset.compact_bytes_before"] += rep->bytes_before;
  (*counters)["dataset.compact_bytes_after"] += rep->bytes_after;
  return Status::OK();
}

}  // namespace

Status RunProbes(const ProbeTarget& t, bullion::AsyncIoService* aio,
                 std::map<std::string, uint64_t>* counters) {
  IoStats stats;
  const CountedDir dir(&stats);
  // The workload's dataset, read through the probes' own counters.
  const CountedDir src(*t.dir, &stats);

  const uint32_t rpg = t.spec->rows_per_group;
  ProbeEncoding(SliceRows(t.table->cols, 0, std::min<uint64_t>(rpg, t.table->rows())),
                t.spec->rows_per_page, counters);
  BULLION_RETURN_NOT_OK(ProbeFormatWrite(t, dir, aio));
  BULLION_RETURN_NOT_OK(ProbeFormatRead(t, src, aio));
  BULLION_RETURN_NOT_OK(ProbeDatasetAndExec(t, src, aio, counters));
  if (!t.covered.count("write")) {
    BULLION_RETURN_NOT_OK(ProbeShardedWrite(t, dir, aio, counters));
  }
  if (!t.covered.count("delete")) {
    BULLION_RETURN_NOT_OK(ProbeDeleteAndCompact(t, src, dir, counters));
  }
  return Status::OK();
}

}  // namespace perfbench
