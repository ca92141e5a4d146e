// Async I/O engine tests (io/aio.h): tier parsing and degradation,
// batched submit/complete against every tier (including the real
// io_uring backend on fd-backed files where the kernel supports it),
// short-read and error propagation through the completion callbacks,
// the AggregatedWriteBuffer ordered-stream contract (byte identity,
// logical-vs-physical accounting, sticky errors), cancellation on
// scan abort, and the headline claim: sync-tier scans are
// byte-identical to the async tiers over both source kinds at
// 1/2/4/8 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/bullion.h"

namespace bullion {
namespace {

// ------------------------------------------------------------- tier knobs

TEST(AioTier, ParseRecognizesEveryTierAndFallsBack) {
  EXPECT_EQ(ParseAioTier("sync", AioTier::kUring), AioTier::kSync);
  EXPECT_EQ(ParseAioTier("threads", AioTier::kUring), AioTier::kThreads);
  EXPECT_EQ(ParseAioTier("uring", AioTier::kSync), AioTier::kUring);
  EXPECT_EQ(ParseAioTier(nullptr, AioTier::kThreads), AioTier::kThreads);
  EXPECT_EQ(ParseAioTier("", AioTier::kSync), AioTier::kSync);
  EXPECT_EQ(ParseAioTier("URING", AioTier::kSync), AioTier::kSync);
  EXPECT_EQ(ParseAioTier("io_uring", AioTier::kThreads), AioTier::kThreads);
}

TEST(AioTier, NamesRoundTrip) {
  EXPECT_STREQ(AioTierName(AioTier::kSync), "sync");
  EXPECT_STREQ(AioTierName(AioTier::kThreads), "threads");
  EXPECT_STREQ(AioTierName(AioTier::kUring), "uring");
  for (AioTier t : {AioTier::kSync, AioTier::kThreads, AioTier::kUring}) {
    EXPECT_EQ(ParseAioTier(AioTierName(t), AioTier::kSync), t);
  }
}

TEST(AioTier, ExplicitConstructionHonorsOrDegradesTier) {
  AsyncIoService sync(AioTier::kSync);
  EXPECT_EQ(sync.tier(), AioTier::kSync);
  AsyncIoService threads(AioTier::kThreads);
  EXPECT_EQ(threads.tier(), AioTier::kThreads);
  // kUring either runs for real or degrades to kThreads — never fails.
  AsyncIoService uring(AioTier::kUring);
  EXPECT_TRUE(uring.tier() == AioTier::kUring ||
              uring.tier() == AioTier::kThreads);
  // The process default is whatever DefaultAioTier resolved to.
  EXPECT_EQ(AsyncIoService::Default().tier(), DefaultAioTier());
}

// ------------------------------------------------- batched read contract

/// One in-memory file of `n` distinct bytes (i * 131 + 7 mod 256).
std::shared_ptr<InMemoryFile> PatternFile(size_t n) {
  auto f = std::make_shared<InMemoryFile>();
  f->data.resize(n);
  for (size_t i = 0; i < n; ++i) {
    f->data[i] = static_cast<uint8_t>((i * 131 + 7) & 0xff);
  }
  return f;
}

/// Submits `reads` disjoint slices of `file` as ONE batch and checks
/// every completion fired exactly once with the right bytes.
void CheckBatch(AsyncIoService* service, const RandomAccessFile& file,
                const std::vector<std::pair<uint64_t, size_t>>& reads,
                const std::vector<uint8_t>& truth) {
  std::vector<Buffer> bufs(reads.size());
  std::vector<std::atomic<int>> fired(reads.size());
  for (auto& f : fired) f.store(0);
  std::vector<AioRead> batch;
  for (size_t i = 0; i < reads.size(); ++i) {
    AioRead r;
    r.file = &file;
    r.offset = reads[i].first;
    r.len = reads[i].second;
    r.out = &bufs[i];
    r.done = [&fired, i](Status s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      fired[i].fetch_add(1);
    };
    batch.push_back(std::move(r));
  }
  service->SubmitReadBatch(std::move(batch));
  service->Drain();
  EXPECT_EQ(service->InFlight(), 0);
  for (size_t i = 0; i < reads.size(); ++i) {
    EXPECT_EQ(fired[i].load(), 1) << "read " << i;
    ASSERT_EQ(bufs[i].size(), reads[i].second) << "read " << i;
    EXPECT_EQ(std::memcmp(bufs[i].data(), truth.data() + reads[i].first,
                          reads[i].second),
              0)
        << "read " << i;
  }
}

TEST(AsyncIoService, BatchSubmitCompletesEveryReadOnEveryTier) {
  auto mem = PatternFile(64 * 1024);
  InMemoryReadableFile file(mem, nullptr);
  // Out-of-order, overlapping-free slices spanning the file.
  std::vector<std::pair<uint64_t, size_t>> reads = {
      {40000, 5000}, {0, 100}, {8192, 8192}, {63000, 1536}, {512, 1}};
  for (AioTier t : {AioTier::kSync, AioTier::kThreads, AioTier::kUring}) {
    AsyncIoService service(t);
    CheckBatch(&service, file, reads, mem->data);
  }
}

TEST(AsyncIoService, SyncTierCompletesInlineInSubmissionOrder) {
  auto mem = PatternFile(4096);
  InMemoryReadableFile file(mem, nullptr);
  AsyncIoService service(AioTier::kSync);
  std::vector<size_t> order;
  std::vector<Buffer> bufs(3);
  std::vector<AioRead> batch;
  for (size_t i = 0; i < 3; ++i) {
    AioRead r;
    r.file = &file;
    r.offset = i * 1024;
    r.len = 512;
    r.out = &bufs[i];
    r.done = [&order, i](Status s) {
      ASSERT_TRUE(s.ok());
      order.push_back(i);
    };
    batch.push_back(std::move(r));
  }
  service.SubmitReadBatch(std::move(batch));
  // Inline passthrough: all done before SubmitReadBatch returned, in
  // submission order — the deterministic baseline tier.
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(service.InFlight(), 0);
}

TEST(AsyncIoService, UringTierReadsRealFileDescriptors) {
  // An fd-backed file exercises the io_uring ring (or the thread lane
  // on kernels without it — byte contract is identical either way).
  const std::string path = "aio_uring_roundtrip.tmp";
  std::vector<uint8_t> truth(256 * 1024);
  for (size_t i = 0; i < truth.size(); ++i) {
    truth[i] = static_cast<uint8_t>((i * 31 + 3) & 0xff);
  }
  {
    auto w = OpenPosixWritableFile(path, /*truncate=*/true);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE((*w)->Append(Slice(truth.data(), truth.size())).ok());
    ASSERT_TRUE((*w)->Flush().ok());
  }
  auto r = OpenPosixReadableFile(path);
  ASSERT_TRUE(r.ok());
  ASSERT_GE((*r)->RawFd(), 0);
  std::vector<std::pair<uint64_t, size_t>> reads = {
      {100000, 40000}, {0, 4096}, {255000, 1144}, {4096, 1}};
  AsyncIoService service(AioTier::kUring);
  CheckBatch(&service, **r, reads, truth);
  // Many-read batch: larger than any reasonable SQ ring won't be, but
  // enough to need more than one completion wave.
  std::vector<std::pair<uint64_t, size_t>> many;
  for (size_t i = 0; i < 512; ++i) many.push_back({i * 512, 512});
  CheckBatch(&service, **r, many, truth);
  std::remove(path.c_str());
}

TEST(AsyncIoService, ShortReadPastEofIsOutOfRangeOnEveryTier) {
  const std::string path = "aio_uring_eof.tmp";
  {
    auto w = OpenPosixWritableFile(path, /*truncate=*/true);
    ASSERT_TRUE(w.ok());
    std::vector<uint8_t> bytes(1000, 0xab);
    ASSERT_TRUE((*w)->Append(Slice(bytes.data(), bytes.size())).ok());
    ASSERT_TRUE((*w)->Flush().ok());
  }
  auto posix = OpenPosixReadableFile(path);
  ASSERT_TRUE(posix.ok());
  auto mem = PatternFile(1000);
  InMemoryReadableFile memfile(mem, nullptr);
  const RandomAccessFile* files[] = {posix->get(), &memfile};
  for (AioTier t : {AioTier::kSync, AioTier::kThreads, AioTier::kUring}) {
    for (const RandomAccessFile* file : files) {
      AsyncIoService service(t);
      Buffer out;
      Status landed;
      std::atomic<bool> fired{false};
      std::vector<AioRead> batch(1);
      batch[0].file = file;
      batch[0].offset = 500;
      batch[0].len = 1000;  // 500 past EOF
      batch[0].out = &out;
      batch[0].done = [&](Status s) {
        landed = std::move(s);
        fired.store(true);
      };
      service.SubmitReadBatch(std::move(batch));
      service.Drain();
      ASSERT_TRUE(fired.load());
      EXPECT_TRUE(landed.IsOutOfRange())
          << AioTierName(t) << ": " << landed.ToString();
    }
  }
  std::remove(path.c_str());
}

/// Read stub that fails every read with an injected EIO.
class FailingFile : public RandomAccessFile {
 public:
  Status Read(uint64_t, size_t, Buffer*) const override {
    return Status::IOError("injected EIO");
  }
  Result<uint64_t> Size() const override { return uint64_t{1} << 20; }
};

TEST(AsyncIoService, IoErrorsPropagateThroughCompletion) {
  FailingFile file;
  for (AioTier t : {AioTier::kSync, AioTier::kThreads}) {
    AsyncIoService service(t);
    std::vector<Buffer> bufs(4);
    std::atomic<int> errors{0};
    std::vector<AioRead> batch;
    for (size_t i = 0; i < 4; ++i) {
      AioRead r;
      r.file = &file;
      r.offset = i * 100;
      r.len = 100;
      r.out = &bufs[i];
      r.done = [&errors](Status s) {
        EXPECT_TRUE(s.IsIOError()) << s.ToString();
        EXPECT_NE(s.ToString().find("injected EIO"), std::string::npos);
        errors.fetch_add(1);
      };
      batch.push_back(std::move(r));
    }
    service.SubmitReadBatch(std::move(batch));
    service.Drain();
    // Every read's callback fires even when all of them fail.
    EXPECT_EQ(errors.load(), 4) << AioTierName(t);
  }
}

// ------------------------------------------- aggregated write contract

/// Write stub that records every physical block it receives.
class RecordingFile : public WritableFile {
 public:
  Status Append(Slice data) override { return AppendBlock(data); }
  Status AppendBlock(Slice data) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (fail_after_ >= 0 && blocks_.size() >= static_cast<size_t>(fail_after_)) {
      return Status::IOError("device gone");
    }
    blocks_.emplace_back(reinterpret_cast<const char*>(data.data()),
                         data.size());
    return Status::OK();
  }
  Status WriteAt(uint64_t, Slice) override {
    return Status::NotImplemented("WriteAt");
  }
  Status Flush() override {
    std::lock_guard<std::mutex> lock(mu_);
    ++flushes_;
    return Status::OK();
  }
  Result<uint64_t> Size() const override {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t n = 0;
    for (const auto& b : blocks_) n += b.size();
    return n;
  }

  void FailAfterBlocks(int n) { fail_after_ = n; }
  std::vector<std::string> blocks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return blocks_;
  }
  std::string contents() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string all;
    for (const auto& b : blocks_) all += b;
    return all;
  }
  int flushes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return flushes_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> blocks_;
  int flushes_ = 0;
  int fail_after_ = -1;
};

TEST(AggregatedWriteBuffer, PreservesByteOrderAcrossTiersAndBlockSizes) {
  // Many appends of coprime sizes so block boundaries split appends at
  // awkward offsets; the physical stream must still concatenate to the
  // exact logical byte sequence, on every tier.
  std::string truth;
  std::vector<std::string> appends;
  for (size_t i = 0; i < 200; ++i) {
    std::string piece;
    size_t len = (i * 37 + 11) % 97 + 1;
    for (size_t j = 0; j < len; ++j) {
      piece.push_back(static_cast<char>('a' + (i + j) % 26));
    }
    truth += piece;
    appends.push_back(std::move(piece));
  }
  for (AioTier t : {AioTier::kSync, AioTier::kThreads, AioTier::kUring}) {
    for (size_t block : {size_t{64}, size_t{1024}, size_t{1} << 20}) {
      AsyncIoService service(t);
      RecordingFile file;
      {
        AggregatedWriteBuffer agg(&file, block, &service);
        for (const std::string& a : appends) {
          ASSERT_TRUE(agg.Append(Slice(a.data(), a.size())).ok());
        }
        auto size = agg.Size();
        ASSERT_TRUE(size.ok());
        EXPECT_EQ(*size, truth.size());
        ASSERT_TRUE(agg.Flush().ok());
      }
      EXPECT_EQ(file.contents(), truth)
          << AioTierName(t) << " block=" << block;
      EXPECT_GE(file.flushes(), 1);
      // Every full block is exactly the configured size (clamped up to
      // the 4096-byte O_DIRECT alignment floor); only the tail is
      // smaller. Far fewer physical writes than logical appends.
      const size_t full = std::max(block, size_t{4096});
      auto blocks = file.blocks();
      for (size_t b = 0; b + 1 < blocks.size(); ++b) {
        EXPECT_EQ(blocks[b].size(), full);
      }
      EXPECT_LT(blocks.size(), appends.size());
    }
  }
}

TEST(AggregatedWriteBuffer, SplitsLogicalFromPhysicalAccounting) {
  InMemoryFileSystem fs;
  auto file = fs.NewWritableFile("agg");
  ASSERT_TRUE(file.ok());
  AsyncIoService service(AioTier::kThreads);
  {
    AggregatedWriteBuffer agg(file->get(), 4096, &service);
    std::string piece(100, 'x');
    for (size_t i = 0; i < 1000; ++i) {
      ASSERT_TRUE(agg.Append(Slice(piece.data(), piece.size())).ok());
    }
    ASSERT_TRUE(agg.Flush().ok());
  }
  // 1000 logical appends; 100'000 bytes / 4096-byte blocks = 24 full
  // blocks + tail = 25 physical write calls.
  EXPECT_EQ(fs.stats().write_ops, 1000u);
  EXPECT_EQ(fs.stats().write_calls, 25u);
  EXPECT_EQ(fs.stats().bytes_written, 100000u);
  EXPECT_EQ(*fs.FileSize("agg"), 100000u);
}

TEST(AggregatedWriteBuffer, WriteErrorIsStickyAndSurfacesEverywhere) {
  for (AioTier t : {AioTier::kSync, AioTier::kThreads}) {
    AsyncIoService service(t);
    RecordingFile file;
    file.FailAfterBlocks(1);  // first block lands, second gets EIO
    AggregatedWriteBuffer agg(&file, 64, &service);
    std::string piece(64, 'y');
    Status st;
    // Async tiers may accept a few appends before the failure lands;
    // the error must surface through Append or, at latest, Flush.
    for (size_t i = 0; i < 100 && st.ok(); ++i) {
      st = agg.Append(Slice(piece.data(), piece.size()));
    }
    if (st.ok()) st = agg.Flush();
    EXPECT_TRUE(st.IsIOError()) << AioTierName(t) << ": " << st.ToString();
    // Sticky: every later operation reports the same failure.
    EXPECT_TRUE(agg.Append(Slice(piece.data(), piece.size())).IsIOError());
    EXPECT_TRUE(agg.Flush().IsIOError());
    EXPECT_TRUE(agg.Barrier().IsIOError());
  }
}

// --------------------------------------------------- scan-seam identity

Schema MakeMixedSchema() {
  std::vector<Field> fields;
  fields.push_back({"uid", DataType::Primitive(PhysicalType::kInt64),
                    LogicalType::kPlain, true});
  fields.push_back({"score", DataType::Primitive(PhysicalType::kFloat64),
                    LogicalType::kPlain, false});
  fields.push_back({"tag", DataType::Primitive(PhysicalType::kBinary),
                    LogicalType::kPlain, false});
  fields.push_back({"clk_seq",
                    DataType::List(DataType::Primitive(PhysicalType::kInt64)),
                    LogicalType::kIdSequence, false});
  return Schema(std::move(fields));
}

std::vector<ColumnVector> MakeOrderedData(const Schema& schema, size_t rows,
                                          size_t first_uid) {
  std::vector<ColumnVector> cols;
  for (const LeafColumn& leaf : schema.leaves()) {
    cols.push_back(ColumnVector::ForLeaf(leaf));
  }
  for (size_t r = 0; r < rows; ++r) {
    int64_t uid = static_cast<int64_t>(first_uid + r);
    cols[0].AppendInt(uid);
    cols[1].AppendReal(static_cast<double>(uid) / 1000.0);
    cols[2].AppendBinary("tag" + std::to_string(uid % 5));
    cols[3].AppendIntList({uid, uid + 1});
  }
  return cols;
}

struct FileFixture {
  InMemoryFileSystem fs;
  Schema schema = MakeMixedSchema();
  std::unique_ptr<TableReader> reader;

  FileFixture(size_t total_rows, uint32_t rows_per_group) {
    std::vector<std::vector<ColumnVector>> groups;
    for (size_t r = 0; r < total_rows; r += rows_per_group) {
      groups.push_back(MakeOrderedData(
          schema, std::min<size_t>(rows_per_group, total_rows - r), r));
    }
    WriterOptions opts;
    opts.rows_per_page = 16;
    auto f = fs.NewWritableFile("t");
    EXPECT_TRUE(WriteTableFile(f->get(), schema, groups, opts).ok());
    reader = *TableReader::Open(*fs.NewReadableFile("t"));
  }
};

struct DatasetFixture {
  InMemoryFileSystem fs;
  Schema schema = MakeMixedSchema();
  ShardManifest manifest;
  std::unique_ptr<ShardedTableReader> reader;

  DatasetFixture(size_t total_rows, uint32_t rows_per_group,
                 uint64_t rows_per_shard) {
    ShardedWriterOptions opts;
    opts.rows_per_group = rows_per_group;
    opts.target_rows_per_shard = rows_per_shard;
    opts.base_name = "t";
    opts.writer.rows_per_page = 16;
    ShardedTableWriter writer(schema, opts, [&](const std::string& name) {
      return fs.NewWritableFile(name);
    });
    EXPECT_TRUE(writer.Append(MakeOrderedData(schema, total_rows, 0)).ok());
    manifest = *writer.Finish();
    reader = *ShardedTableReader::Open(manifest, [&](const std::string& n) {
      return fs.NewReadableFile(n);
    });
  }
};

std::vector<RowBatch> Drain(BatchStream* stream) {
  std::vector<RowBatch> batches;
  RowBatch batch;
  for (;;) {
    auto more = stream->Next(&batch);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    batches.push_back(std::move(batch));
  }
  return batches;
}

TEST(AioScan, SyncTierIsByteIdenticalToAsyncTiersOnFileStreams) {
  FileFixture fx(600, 50);
  AsyncIoService sync(AioTier::kSync);
  auto truth_stream = Scan(fx.reader.get()).Threads(1).Aio(&sync).Stream();
  ASSERT_TRUE(truth_stream.ok());
  std::vector<RowBatch> truth = Drain(truth_stream->get());
  ASSERT_FALSE(truth.empty());
  for (AioTier t : {AioTier::kSync, AioTier::kThreads, AioTier::kUring}) {
    AsyncIoService service(t);
    for (size_t threads : {1, 2, 4, 8}) {
      auto stream =
          Scan(fx.reader.get()).Threads(threads).Aio(&service).Stream();
      ASSERT_TRUE(stream.ok()) << stream.status().ToString();
      std::vector<RowBatch> got = Drain(stream->get());
      ASSERT_EQ(got.size(), truth.size())
          << AioTierName(t) << " threads=" << threads;
      for (size_t g = 0; g < got.size(); ++g) {
        EXPECT_EQ(got[g].group, truth[g].group);
        EXPECT_EQ(got[g].columns, truth[g].columns)
            << AioTierName(t) << " threads=" << threads << " group " << g;
      }
    }
  }
}

TEST(AioScan, SyncTierIsByteIdenticalToAsyncTiersOnDatasetStreams) {
  DatasetFixture fx(600, 50, 200);
  ASSERT_GT(fx.manifest.num_shards(), 1u);
  AsyncIoService sync(AioTier::kSync);
  auto truth_stream = Scan(fx.reader.get()).Threads(1).Aio(&sync).Stream();
  ASSERT_TRUE(truth_stream.ok());
  std::vector<RowBatch> truth = Drain(truth_stream->get());
  ASSERT_FALSE(truth.empty());
  for (AioTier t : {AioTier::kSync, AioTier::kThreads, AioTier::kUring}) {
    AsyncIoService service(t);
    for (size_t threads : {1, 2, 4, 8}) {
      auto stream =
          Scan(fx.reader.get()).Threads(threads).Aio(&service).Stream();
      ASSERT_TRUE(stream.ok()) << stream.status().ToString();
      std::vector<RowBatch> got = Drain(stream->get());
      ASSERT_EQ(got.size(), truth.size())
          << AioTierName(t) << " threads=" << threads;
      for (size_t g = 0; g < got.size(); ++g) {
        EXPECT_EQ(got[g].columns, truth[g].columns)
            << AioTierName(t) << " threads=" << threads << " group " << g;
      }
    }
  }
}

TEST(AioScan, FilteredScanMatchesAcrossTiers) {
  DatasetFixture fx(600, 50, 200);
  AsyncIoService sync(AioTier::kSync);
  auto truth_stream = Scan(fx.reader.get())
                          .Columns({"uid", "score"})
                          .Filter("uid", CompareOp::kGe, int64_t{450})
                          .Threads(1)
                          .Aio(&sync)
                          .Stream();
  ASSERT_TRUE(truth_stream.ok());
  std::vector<RowBatch> truth = Drain(truth_stream->get());
  for (AioTier t : {AioTier::kThreads, AioTier::kUring}) {
    AsyncIoService service(t);
    auto stream = Scan(fx.reader.get())
                      .Columns({"uid", "score"})
                      .Filter("uid", CompareOp::kGe, int64_t{450})
                      .Threads(4)
                      .Aio(&service)
                      .Stream();
    ASSERT_TRUE(stream.ok());
    std::vector<RowBatch> got = Drain(stream->get());
    ASSERT_EQ(got.size(), truth.size()) << AioTierName(t);
    for (size_t g = 0; g < got.size(); ++g) {
      EXPECT_EQ(got[g].columns, truth[g].columns) << AioTierName(t);
    }
  }
}

// ------------------------------------------------- cancellation on abort

/// Read wrapper that delays every pread, so a dropped stream still has
/// reads in flight — the abort path must drain them before teardown.
class SlowFile : public RandomAccessFile {
 public:
  explicit SlowFile(std::unique_ptr<RandomAccessFile> base)
      : base_(std::move(base)) {}
  Status Read(uint64_t offset, size_t len, Buffer* out) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return base_->Read(offset, len, out);
  }
  Result<uint64_t> Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
};

TEST(AioScan, AbortingAStreamWithReadsInFlightIsSafe) {
  InMemoryFileSystem fs;
  Schema schema = MakeMixedSchema();
  std::vector<std::vector<ColumnVector>> groups;
  for (size_t r = 0; r < 800; r += 50) {
    groups.push_back(MakeOrderedData(schema, 50, r));
  }
  WriterOptions wopts;
  wopts.rows_per_page = 16;
  auto f = fs.NewWritableFile("t");
  ASSERT_TRUE(WriteTableFile(f->get(), schema, groups, wopts).ok());
  for (AioTier t : {AioTier::kThreads, AioTier::kUring}) {
    AsyncIoService service(t);
    auto slow = std::make_unique<SlowFile>(*fs.NewReadableFile("t"));
    auto reader = TableReader::Open(std::move(slow));
    ASSERT_TRUE(reader.ok());
    auto stream = Scan(reader->get())
                      .Threads(4)
                      .PrefetchDepth(4)
                      .Aio(&service)
                      .Stream();
    ASSERT_TRUE(stream.ok());
    RowBatch batch;
    auto more = (*stream)->Next(&batch);  // at least one unit in flight
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    stream->reset();  // abort: pending preads + decodes must drain
    service.Drain();
    EXPECT_EQ(service.InFlight(), 0) << AioTierName(t);
  }
}

/// Fails every read after the first `ok_reads` — the stream must
/// surface the error from Next(), not hang or crash.
class FailAfterFile : public RandomAccessFile {
 public:
  FailAfterFile(std::unique_ptr<RandomAccessFile> base, int ok_reads)
      : base_(std::move(base)), remaining_(ok_reads) {}
  Status Read(uint64_t offset, size_t len, Buffer* out) const override {
    if (remaining_.fetch_sub(1) <= 0) {
      return Status::IOError("injected EIO");
    }
    return base_->Read(offset, len, out);
  }
  Result<uint64_t> Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  mutable std::atomic<int> remaining_;
};

TEST(AioScan, ReadErrorsSurfaceFromNext) {
  InMemoryFileSystem fs;
  Schema schema = MakeMixedSchema();
  std::vector<std::vector<ColumnVector>> groups;
  for (size_t r = 0; r < 400; r += 50) {
    groups.push_back(MakeOrderedData(schema, 50, r));
  }
  WriterOptions wopts;
  wopts.rows_per_page = 16;
  auto f = fs.NewWritableFile("t");
  ASSERT_TRUE(WriteTableFile(f->get(), schema, groups, wopts).ok());
  for (AioTier t : {AioTier::kSync, AioTier::kThreads}) {
    AsyncIoService service(t);
    // Footer/metadata reads succeed; the first data pread fails.
    auto failing =
        std::make_unique<FailAfterFile>(*fs.NewReadableFile("t"), 4);
    auto reader = TableReader::Open(std::move(failing));
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    auto stream =
        Scan(reader->get()).Threads(2).Aio(&service).Stream();
    ASSERT_TRUE(stream.ok());
    RowBatch batch;
    Status err = Status::OK();
    for (;;) {
      auto more = (*stream)->Next(&batch);
      if (!more.ok()) {
        err = more.status();
        break;
      }
      if (!*more) break;
    }
    EXPECT_TRUE(err.IsIOError()) << AioTierName(t) << ": " << err.ToString();
    EXPECT_NE(err.ToString().find("injected EIO"), std::string::npos);
  }
}

// --------------------------------------------------- write-seam identity

TEST(AioWrite, AggregatedCommitStreamIsByteIdenticalToDirectWrites) {
  InMemoryFileSystem fs;
  Schema schema = MakeMixedSchema();
  std::vector<std::vector<ColumnVector>> groups;
  for (size_t r = 0; r < 500; r += 100) {
    groups.push_back(MakeOrderedData(schema, 100, r));
  }
  // Reference: unaggregated direct appends.
  WriterOptions ref_opts;
  ref_opts.rows_per_page = 16;
  ref_opts.write_block_bytes = 0;
  auto ref_file = fs.NewWritableFile("ref");
  ASSERT_TRUE(WriteTableFile(ref_file->get(), schema, groups, ref_opts).ok());
  auto ref_reader = fs.NewReadableFile("ref");
  uint64_t ref_size = *(*ref_reader)->Size();
  Buffer ref_bytes;
  ASSERT_TRUE((*ref_reader)->Read(0, ref_size, &ref_bytes).ok());

  for (AioTier t : {AioTier::kSync, AioTier::kThreads, AioTier::kUring}) {
    for (size_t block : {size_t{512}, size_t{1} << 20}) {
      AsyncIoService service(t);
      WriterOptions opts;
      opts.rows_per_page = 16;
      opts.write_block_bytes = block;
      opts.aio = &service;
      std::string name =
          std::string("agg_") + AioTierName(t) + "_" + std::to_string(block);
      auto file = fs.NewWritableFile(name);
      ASSERT_TRUE(WriteTableFile(file->get(), schema, groups, opts).ok());
      ASSERT_EQ(*fs.FileSize(name), ref_size);
      auto reader = fs.NewReadableFile(name);
      Buffer bytes;
      ASSERT_TRUE((*reader)->Read(0, ref_size, &bytes).ok());
      EXPECT_EQ(std::memcmp(bytes.data(), ref_bytes.data(), ref_size), 0)
          << AioTierName(t) << " block=" << block;
    }
  }
}

TEST(AioWrite, PosixRoundTripThroughAggregationAndUringScan) {
  // Full posix round trip: TableWriter through the aggregated write
  // stream onto a real fd (O_DIRECT if BULLION_ODIRECT=1 and the
  // filesystem allows it), read back through the uring scan seam, and
  // compare against the in-memory reference.
  InMemoryFileSystem fs;
  Schema schema = MakeMixedSchema();
  std::vector<std::vector<ColumnVector>> groups;
  for (size_t r = 0; r < 300; r += 50) {
    groups.push_back(MakeOrderedData(schema, 50, r));
  }
  WriterOptions opts;
  opts.rows_per_page = 16;
  auto mem_file = fs.NewWritableFile("ref");
  ASSERT_TRUE(WriteTableFile(mem_file->get(), schema, groups, opts).ok());
  auto mem_reader = *TableReader::Open(*fs.NewReadableFile("ref"));
  AsyncIoService sync(AioTier::kSync);
  auto truth_stream = Scan(mem_reader.get()).Threads(1).Aio(&sync).Stream();
  std::vector<RowBatch> truth = Drain(truth_stream->get());

  const std::string path = "aio_posix_roundtrip.tmp";
  AsyncIoService service(AioTier::kUring);
  WriterOptions popts;
  popts.rows_per_page = 16;
  popts.aio = &service;
  auto posix_w = OpenPosixWritableFile(path, /*truncate=*/true);
  ASSERT_TRUE(posix_w.ok());
  ASSERT_TRUE(WriteTableFile(posix_w->get(), schema, groups, popts).ok());

  auto posix_r = OpenPosixReadableFile(path);
  ASSERT_TRUE(posix_r.ok());
  EXPECT_EQ(*(*posix_r)->Size(), *fs.FileSize("ref"));
  auto reader = TableReader::Open(std::move(*posix_r));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  for (size_t threads : {1, 4}) {
    auto stream =
        Scan(reader->get()).Threads(threads).Aio(&service).Stream();
    ASSERT_TRUE(stream.ok());
    std::vector<RowBatch> got = Drain(stream->get());
    ASSERT_EQ(got.size(), truth.size());
    for (size_t g = 0; g < got.size(); ++g) {
      EXPECT_EQ(got[g].columns, truth[g].columns) << "group " << g;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bullion
