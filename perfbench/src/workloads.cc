// The four workloads. Each is a closed loop from one process over a
// seeded, fixed op sequence; README.md gives their sizes and why each
// was chosen.

#include <algorithm>
#include <cstdio>
#include <thread>

#include "perfbench/src/bench.h"
#include "workload/zipf.h"

namespace perfbench {

using bullion::ColumnVector;
using bullion::RowBatch;
using bullion::ShardManifest;
using bullion::ShardedTableReader;
using bullion::Status;

namespace {

std::atomic<uint64_t> g_next_op{1};
uint64_t NextOpId() { return g_next_op.fetch_add(1); }

/// True for OK; otherwise reports the run's first failed op status on
/// stderr (the op is then counted as failed by the caller).
bool Noted(const Status& s) {
  static std::atomic<bool> reported{false};
  if (!s.ok() && !reported.exchange(true)) {
    std::fprintf(stderr, "perfbench: op failed: %s\n", s.ToString().c_str());
  }
  return s.ok();
}

/// Decoded bytes of every column of `table`'s rows `rows`.
uint64_t RowsUserBytes(const Table& table, const std::vector<uint32_t>& rows) {
  uint64_t total = 0;
  for (uint32_t r : rows) {
    for (const ColumnVector& c : table.cols) total += RowUserBytes(c, r);
  }
  return total;
}

/// Digest of `rows` over projection `proj` (columns of the table).
RowDigest DigestOf(const std::vector<ColumnVector>& proj,
                   const std::vector<uint32_t>& rows) {
  RowDigest d;
  for (uint32_t r : rows) d.Add(RowHash(proj, r));
  return d;
}

size_t ProjectedCacheBytes(const Table& table,
                           const std::vector<uint32_t>& projection,
                           uint32_t rows_per_group) {
  size_t total = 0;
  for (uint32_t c : projection) {
    for (uint64_t r = 0; r < table.rows(); r += rows_per_group) {
      const uint64_t end = std::min<uint64_t>(r + rows_per_group, table.rows());
      total += bullion::ApproxColumnVectorBytes(
          SliceRows({table.cols[c]}, r, end)[0]);
    }
  }
  return total;
}

/// Wall and process CPU time of one pass: the sum of the intervals
/// between Start() and Stop(). Nothing of the benchmark's own runs in an
/// interval while library threads could be working beside it.
class PassClock {
 public:
  void Start() {
    wall0_ = NowNs();
    cpu0_ = ProcessCpuNs();
  }
  void Stop() {
    wall_ += NowNs() - wall0_;
    cpu_ += ProcessCpuNs() - cpu0_;
  }
  void Finish(PassRecord* pass) const {
    pass->wall_ns = wall_;
    pass->cpu_ns = cpu_;
  }

 private:
  uint64_t wall0_ = 0, cpu0_ = 0;
  uint64_t wall_ = 0, cpu_ = 0;
};

// ------------------------------------------------------------- ingest

/// The write path alone: row groups of the ads table appended through
/// ShardedWriteBuilder into a fresh dataset. One op = one row group
/// accepted (Append returns); Finish closes the pass.
class IngestWorkload : public Workload {
 public:
  IngestWorkload(const RunOptions& options, bullion::AsyncIoService* aio)
      : options_(options), aio_(aio) {
    spec_.ads_scale = 0.001;
    spec_.seq_length = 64;
    spec_.users = 6400;
    spec_.rows_per_group = 64;
    spec_.groups_per_shard = 16;
    spec_.rows_per_page = 64;
  }

  Status Setup() override {
    dir_.reset();
    batches_.clear();
    digests_.clear();
    batch_bytes_.clear();
    // Only the row groups are kept: the probes regenerate the table.
    const Table table = MakeTable(spec_, options_.seed);
    schema_ = table.schema;
    rows_ = table.rows();
    for (uint64_t r = 0; r < rows_; r += spec_.rows_per_group) {
      const uint64_t end = std::min<uint64_t>(r + spec_.rows_per_group, rows_);
      batches_.push_back(SliceRows(table.cols, r, end));
      digests_.push_back(DigestRows(batches_.back()));
      batch_bytes_.push_back(UserBytes(batches_.back()));
    }
    user_bytes_ = UserBytes(table.cols);
    dir_ = std::make_unique<CountedDir>(&stats_);
    return Status::OK();
  }

  Status RunPass(PassRecord* pass, Checker* checker) override {
    dir_->Clear();
    const IoStatsSnapshot before = stats_.Snapshot();
    std::vector<uint8_t> ok(batches_.size(), 0);
    PassClock clock;
    clock.Start();
    bullion::WriterOptions wopts;
    wopts.rows_per_page = spec_.rows_per_page;
    wopts.aio = aio_;
    wopts.stats = &stats_;
    auto writer = bullion::ShardedWriteBuilder(schema_, dir_->WriteOpener())
                      .BaseName("ingest")
                      .RowsPerGroup(spec_.rows_per_group)
                      .RowsPerShard(static_cast<uint64_t>(spec_.rows_per_group) *
                                    spec_.groups_per_shard)
                      .Options(wopts)
                      .Threads(kWorkerThreads)
                      .Build();
    BULLION_RETURN_NOT_OK(writer.status());
    for (size_t g = 0; g < batches_.size(); ++g) {
      const uint64_t t0 = NowNs();
      Status s;
      {
        ScopedSpan span("exec.append", NextOpId());
        span.set_bytes(batch_bytes_[g]);
        s = (*writer)->Append(batches_[g]);
      }
      pass->lat_ns.push_back(NowNs() - t0);
      ok[g] = Noted(s);
    }
    bullion::Result<ShardManifest> manifest = Status::Unknown("not finished");
    {
      ScopedSpan span("dataset.finish");
      manifest = (*writer)->Finish();
    }
    clock.Stop();
    clock.Finish(pass);
    const IoStatsSnapshot written = IoStatsDelta(before, stats_.Snapshot());
    pass->io = written;
    pass->ops = batches_.size();
    pass->user_bytes = user_bytes_;
    pass->extra["io.write_user_bytes"] = user_bytes_;

    // Read the dataset back, row group by row group: each op is correct
    // only if its group reads back exactly as appended.
    uint64_t returned = 0;
    const IoStatsSnapshot before_read = stats_.Snapshot();
    if (manifest.ok()) {
      manifest_ = *manifest;
      auto ds = ShardedTableReader::Open(manifest_, dir_->ReadOpener());
      if (ds.ok()) {
        auto stream = bullion::Scan(ds->get()).Aio(aio_).Stream();
        RowBatch batch;
        while (stream.ok()) {
          auto more = (*stream)->Next(&batch);
          if (!more.ok() || !*more) break;
          if (batch.group < batches_.size()) {
            ok[batch.group] &= checker->Same(DigestRows(batch.columns),
                                             digests_[batch.group]);
          }
          returned += UserBytes(batch.columns);
        }
      }
    }
    if (returned != user_bytes_) std::fill(ok.begin(), ok.end(), 0);
    pass->ok_ops = std::count(ok.begin(), ok.end(), 1);
    const IoStatsSnapshot read = IoStatsDelta(before_read, stats_.Snapshot());
    if (!amp_set_ && manifest.ok()) {
      amp_set_ = true;
      amp_.read_bytes = read.bytes_read;
      amp_.read_user_bytes = returned;
      amp_.write_bytes = written.bytes_written;
      amp_.write_user_bytes = user_bytes_;
      amp_.live_file_bytes = DatasetFileBytes(*dir_, manifest_);
      amp_.live_user_bytes = user_bytes_;
    }
    return Status::OK();
  }

  Amplification Amp() const override { return amp_; }

  ProbeTarget Target() override {
    probe_table_ = MakeTable(spec_, options_.seed);
    ProbeTarget t;
    t.table = &probe_table_;
    t.spec = &spec_;
    t.dir = dir_.get();
    t.manifest = manifest_;
    t.projection = PickProjection(schema_, 2);
    t.covered = {"write"};
    return t;
  }

  std::map<std::string, double> Sizes() const override {
    return {{"rows", double(rows_)},
            {"leaves", double(schema_.num_leaves())},
            {"seq_length", double(spec_.seq_length)},
            {"rows_per_group", double(spec_.rows_per_group)},
            {"ops_per_pass", double(batches_.size())},
            {"user_mb", user_bytes_ / 1e6},
            {"encode_threads", double(kWorkerThreads)}};
  }

 private:
  RunOptions options_;
  bullion::AsyncIoService* aio_;
  TableSpec spec_;
  bullion::Schema schema_;
  uint64_t rows_ = 0;
  std::vector<std::vector<ColumnVector>> batches_;
  std::vector<RowDigest> digests_;
  std::vector<uint64_t> batch_bytes_;
  uint64_t user_bytes_ = 0;
  IoStats stats_;
  std::unique_ptr<CountedDir> dir_;
  ShardManifest manifest_;
  Table probe_table_;
  Amplification amp_;
  bool amp_set_ = false;
};

// --------------------------------------------------------- train_scan

/// Cold training epochs over a wide table: a minority projection plus
/// sparse id sequences, through a DecodedChunkCache a quarter the size
/// of the projection. One op = one BatchStream::Next batch.
class TrainScanWorkload : public Workload {
 public:
  static constexpr uint64_t kBatchRows = 512;  // one batch per row group
  static constexpr int kEpochsPerPass = 16;

  TrainScanWorkload(const RunOptions& options, bullion::AsyncIoService* aio)
      : options_(options), aio_(aio) {
    spec_.ads_scale = 0.003;
    spec_.seq_length = 32;
    spec_.users = 4096;
    spec_.rows_per_group = 512;
    spec_.groups_per_shard = 2;
    spec_.rows_per_page = 256;
  }

  Status Setup() override {
    ds_.reset();
    cache_.reset();
    dir_.reset();
    table_ = {};
    table_ = MakeTable(spec_, options_.seed);
    dir_ = std::make_unique<CountedDir>(&stats_);
    const IoStatsSnapshot before = stats_.Snapshot();
    BULLION_ASSIGN_OR_RETURN(manifest_, WriteDataset(table_, spec_, *dir_, aio_,
                                                     kWorkerThreads, "train"));
    setup_write_bytes_ = IoStatsDelta(before, stats_.Snapshot()).bytes_written;
    BULLION_ASSIGN_OR_RETURN(ds_, ShardedTableReader::Open(manifest_, dir_->ReadOpener()));
    projection_ = PickProjection(table_.schema, 4);
    names_ = LeafNames(table_.schema, projection_);
    const std::vector<ColumnVector> proj = Project(table_.cols, projection_);
    prefix_.assign(table_.rows() + 1, 0);
    for (uint64_t r = 0; r < table_.rows(); ++r) {
      prefix_[r + 1] = prefix_[r] + RowHash(proj, r);
    }
    projected_cache_bytes_ = ProjectedCacheBytes(table_, projection_, spec_.rows_per_group);
    cache_ = std::make_unique<bullion::DecodedChunkCache>(projected_cache_bytes_ / 4, &stats_);
    return Status::OK();
  }

  Status RunPass(PassRecord* pass, Checker* checker) override {
    const IoStatsSnapshot before = stats_.Snapshot();
    PassClock clock;
    for (int epoch = 0; epoch < kEpochsPerPass; ++epoch) RunEpoch(pass, checker, &clock);
    clock.Finish(pass);
    pass->io = IoStatsDelta(before, stats_.Snapshot());
    if (!amp_set_) {
      amp_set_ = true;
      amp_.read_bytes = pass->io.bytes_read;
      amp_.read_user_bytes = pass->user_bytes;
      amp_.write_bytes = setup_write_bytes_;
      amp_.write_user_bytes = UserBytes(table_.cols);
      amp_.live_file_bytes = DatasetFileBytes(*dir_, manifest_);
      amp_.live_user_bytes = UserBytes(table_.cols);
    }
    return Status::OK();
  }

  Amplification Amp() const override { return amp_; }

  ProbeTarget Target() override {
    ProbeTarget t;
    t.table = &table_;
    t.spec = &spec_;
    t.dir = dir_.get();
    t.manifest = manifest_;
    t.projection = projection_;
    t.covered = {"exec.next"};
    return t;
  }

  std::map<std::string, double> Sizes() const override {
    return {{"rows", double(table_.rows())},
            {"leaves", double(table_.schema.num_leaves())},
            {"projected_leaves", double(projection_.size())},
            {"seq_length", double(spec_.seq_length)},
            {"batch_rows", double(kBatchRows)},
            {"epochs_per_pass", double(kEpochsPerPass)},
            {"projected_cache_mb", projected_cache_bytes_ / 1e6},
            {"cache_budget_mb", cache_ ? cache_->capacity_bytes() / 1e6 : 0.0},
            {"dataset_file_mb", amp_.live_file_bytes / 1e6},
            {"scan_threads", double(kWorkerThreads)}};
  }

 private:
  /// One cold epoch: a fresh stream over an emptied cache. The clock
  /// runs from opening the stream until it is drained and closed; the
  /// batches are kept and verified after that, so no verification
  /// overlaps the scan workers' fetch and decode.
  void RunEpoch(PassRecord* pass, Checker* checker, PassClock* clock) {
    std::vector<RowBatch> batches;
    uint64_t attempted = 0;
    clock->Start();
    {
      auto stream = bullion::Scan(ds_.get())
                        .Columns(names_)
                        .Threads(kWorkerThreads)
                        .BatchRows(kBatchRows)
                        .Cache(cache_.get())
                        .Aio(aio_)
                        .Stats(&stats_)
                        .Stream();
      while (Noted(stream.status())) {
        const uint64_t t0 = NowNs();
        RowBatch batch;
        bullion::Result<bool> more = false;
        {
          ScopedSpan span("exec.next", NextOpId());
          more = (*stream)->Next(&batch);
        }
        if (more.ok() && !*more) break;
        pass->lat_ns.push_back(NowNs() - t0);
        attempted += 1;
        if (!Noted(more.status())) break;
        batches.push_back(std::move(batch));
      }
    }
    clock->Stop();

    uint64_t cursor = 0;
    for (const RowBatch& batch : batches) {
      const uint64_t n = batch.num_rows();
      bool ok = cursor + n <= table_.rows();
      if (ok) {
        RowDigest want{n, prefix_[cursor + n] - prefix_[cursor]};
        ok = checker->Same(DigestRows(batch.columns), want);
      }
      cursor += n;
      pass->user_bytes += UserBytes(batch.columns);
      pass->ok_ops += ok ? 1 : 0;
    }
    if (cursor != table_.rows()) attempted += 1;  // an epoch cut short is one failed op
    pass->ops += attempted;
    cache_->Clear();
  }

  RunOptions options_;
  bullion::AsyncIoService* aio_;
  TableSpec spec_;
  Table table_;
  IoStats stats_;
  std::unique_ptr<CountedDir> dir_;
  ShardManifest manifest_;
  std::unique_ptr<ShardedTableReader> ds_;
  std::vector<uint32_t> projection_;
  std::vector<std::string> names_;
  std::vector<uint64_t> prefix_;  // prefix sums of projected row hashes
  size_t projected_cache_bytes_ = 0;
  std::unique_ptr<bullion::DecodedChunkCache> cache_;
  uint64_t setup_write_bytes_ = 0;
  Amplification amp_;
  bool amp_set_ = false;
};

// ------------------------------------------------------- serve_lookup

/// Zipf(1.1) point lookups from kClientThreads closed-loop clients
/// over a multi-shard dataset, one in four keys absent but inside every
/// zone map. Clients share a decoded-chunk cache warmed with every key
/// chunk, so the key column is served from cache and only the late-
/// materialized page runs are read. One op = one lookup.
class ServeLookupWorkload : public Workload {
 public:
  static constexpr size_t kLookupsPerClient = 500;

  ServeLookupWorkload(const RunOptions& options, bullion::AsyncIoService* aio)
      : options_(options), aio_(aio) {
    spec_.ads_scale = 0.0005;
    spec_.seq_length = 32;
    spec_.users = 4096;
    spec_.rows_per_user = 2;
    spec_.rows_per_group = 512;
    spec_.groups_per_shard = 2;
    spec_.rows_per_page = 128;
  }

  Status Setup() override {
    clients_.clear();
    cache_.reset();
    dir_.reset();
    table_ = {};
    table_ = MakeTable(spec_, options_.seed);
    dir_ = std::make_unique<CountedDir>(&setup_stats_);
    const IoStatsSnapshot before = setup_stats_.Snapshot();
    BULLION_ASSIGN_OR_RETURN(manifest_, WriteDataset(table_, spec_, *dir_, aio_,
                                                     kWorkerThreads, "serve"));
    setup_write_bytes_ = IoStatsDelta(before, setup_stats_.Snapshot()).bytes_written;
    projection_ = PickProjection(table_.schema, 1);
    names_ = LeafNames(table_.schema, projection_);
    const std::vector<ColumnVector> proj = Project(table_.cols, projection_);
    user_digest_.clear();
    for (const auto& rows : table_.user_rows) user_digest_.push_back(DigestOf(proj, rows));

    // The cache holds every key-column chunk (the whole hot set of the
    // access path: late-materialized columns are never cached).
    cache_ = std::make_unique<bullion::DecodedChunkCache>(32 * table_.rows(), &cache_stats_);
    {
      BULLION_ASSIGN_OR_RETURN(auto ds, ShardedTableReader::Open(manifest_, dir_->ReadOpener()));
      BULLION_ASSIGN_OR_RETURN(
          auto warm, bullion::Scan(ds.get()).Columns({"uid"}).Cache(cache_.get()).Aio(aio_).Stream());
      RowBatch batch;
      for (;;) {
        BULLION_ASSIGN_OR_RETURN(bool more, warm->Next(&batch));
        if (!more) break;
      }
    }
    hot_set_bytes_ = cache_->bytes_used();

    // Per-client readers and counters: every op's I/O is counted exactly.
    std::vector<uint32_t> perm(spec_.users);
    for (uint32_t u = 0; u < spec_.users; ++u) perm[u] = u;
    bullion::Random rng(options_.seed * 7 + 3);
    for (size_t i = perm.size(); i > 1; --i) std::swap(perm[i - 1], perm[rng.Uniform(i)]);
    for (size_t c = 0; c < kClientThreads; ++c) {
      auto client = std::make_unique<Client>();
      client->dir = std::make_unique<CountedDir>(*dir_, &client->stats);
      BULLION_ASSIGN_OR_RETURN(client->reader,
                               ShardedTableReader::Open(manifest_, client->dir->ReadOpener()));
      bullion::ZipfGenerator zipf(spec_.users, 1.1, options_.seed * 131 + c);
      for (size_t i = 0; i < kLookupsPerClient; ++i) {
        const uint32_t u = perm[zipf.Next()];
        const bool miss = (i % 4) == 3;
        int64_t key = Table::UidOf(u);
        if (miss) key += (u + 1 == spec_.users) ? -1 : 1;
        client->keys.push_back({key, miss ? -1 : static_cast<int64_t>(u)});
      }
      clients_.push_back(std::move(client));
    }
    return Status::OK();
  }

  Status RunPass(PassRecord* pass, Checker* checker) override {
    const IoStatsSnapshot cache_before = cache_stats_.Snapshot();
    std::vector<IoStatsSnapshot> before;
    for (auto& c : clients_) {
      before.push_back(c->stats.Snapshot());
      c->lat_ns.clear();
      c->ok = c->bytes = c->misses = c->miss_preads = 0;
    }
    PassClock clock;
    clock.Start();
    std::vector<std::thread> threads;
    for (auto& c : clients_) {
      threads.emplace_back([this, &c, checker] { RunClient(c.get(), checker); });
    }
    for (auto& t : threads) t.join();
    clock.Stop();
    clock.Finish(pass);
    IoStatsSnapshot io = IoStatsDelta(cache_before, cache_stats_.Snapshot());
    for (size_t i = 0; i < clients_.size(); ++i) {
      Client& c = *clients_[i];
      const IoStatsSnapshot d = IoStatsDelta(before[i], c.stats.Snapshot());
      io.read_ops += d.read_ops;
      io.bytes_read += d.bytes_read;
      io.groups_pruned += d.groups_pruned;
      io.shards_pruned += d.shards_pruned;
      io.batches_emitted += d.batches_emitted;
      pass->lat_ns.insert(pass->lat_ns.end(), c.lat_ns.begin(), c.lat_ns.end());
      pass->ops += c.keys.size();
      pass->ok_ops += c.ok;
      pass->user_bytes += c.bytes;
      pass->extra["serve.misses"] += c.misses;
      pass->extra["serve.miss_preads"] += c.miss_preads;
    }
    pass->io = io;
    if (!amp_set_) {
      amp_set_ = true;
      amp_.read_bytes = io.bytes_read;
      amp_.read_user_bytes = pass->user_bytes;
      amp_.write_bytes = setup_write_bytes_;
      amp_.write_user_bytes = UserBytes(table_.cols);
      amp_.live_file_bytes = DatasetFileBytes(*dir_, manifest_);
      amp_.live_user_bytes = UserBytes(table_.cols);
    }
    return Status::OK();
  }

  Amplification Amp() const override { return amp_; }

  ProbeTarget Target() override {
    ProbeTarget t;
    t.table = &table_;
    t.spec = &spec_;
    t.dir = dir_.get();
    t.manifest = manifest_;
    t.projection = projection_;
    t.covered = {"serve.lookup"};
    return t;
  }

  std::map<std::string, double> Sizes() const override {
    return {{"rows", double(table_.rows())},
            {"leaves", double(table_.schema.num_leaves())},
            {"users", double(spec_.users)},
            {"shards", double(manifest_.num_shards())},
            {"projected_leaves", double(projection_.size())},
            {"clients", double(kClientThreads)},
            {"lookups_per_client", double(kLookupsPerClient)},
            {"miss_fraction", 0.25},
            {"zipf_s", 1.1},
            {"hot_set_mb", hot_set_bytes_ / 1e6},
            {"cache_budget_mb", cache_ ? cache_->capacity_bytes() / 1e6 : 0.0},
            {"dataset_file_mb", amp_.live_file_bytes / 1e6}};
  }

 private:
  struct Client {
    IoStats stats;
    std::unique_ptr<CountedDir> dir;
    std::unique_ptr<ShardedTableReader> reader;
    std::vector<std::pair<int64_t, int64_t>> keys;  // (uid, user or -1)
    std::vector<uint64_t> lat_ns;
    uint64_t ok = 0, bytes = 0, misses = 0, miss_preads = 0;
  };

  void RunClient(Client* c, Checker* checker) {
    for (const auto& [key, user] : c->keys) {
      const bool miss = user < 0;
      const uint64_t reads0 = c->stats.read_ops.load();
      const uint64_t t0 = NowNs();
      bullion::Result<bullion::LookupResult> r = Status::Unknown("not run");
      {
        ScopedSpan span(miss ? "serve.lookup.miss" : "serve.lookup.hit", NextOpId());
        r = bullion::Lookup(c->reader.get())
                .Key("uid", key)
                .Columns(names_)
                .Cache(cache_.get())
                .Aio(aio_)
                .Stats(&c->stats)
                .Run();
      }
      c->lat_ns.push_back(NowNs() - t0);
      if (miss) {
        c->misses += 1;
        c->miss_preads += c->stats.read_ops.load() - reads0;
      }
      if (!Noted(r.status())) continue;
      const RowDigest want = miss ? RowDigest{} : user_digest_[user];
      c->ok += checker->Same(DigestRows(r->columns), want) ? 1 : 0;
      c->bytes += UserBytes(r->columns);
    }
  }

  RunOptions options_;
  bullion::AsyncIoService* aio_;
  TableSpec spec_;
  Table table_;
  IoStats setup_stats_;
  IoStats cache_stats_;
  std::unique_ptr<CountedDir> dir_;
  ShardManifest manifest_;
  std::vector<uint32_t> projection_;
  std::vector<std::string> names_;
  std::vector<RowDigest> user_digest_;
  std::unique_ptr<bullion::DecodedChunkCache> cache_;
  size_t hot_set_bytes_ = 0;
  uint64_t setup_write_bytes_ = 0;
  std::vector<std::unique_ptr<Client>> clients_;
  Amplification amp_;
  bool amp_set_ = false;
};

// --------------------------------------------------------- compliance

/// User deletion requests (§2.1) against a live dataset: find the
/// user's rows, erase them in place at level 2, check with Lookup that
/// the user is gone and a survivor is intact, and compact every shard
/// that crosses the deleted-fraction threshold. One op = one request.
class ComplianceWorkload : public Workload {
 public:
  static constexpr double kCompactThreshold = 0.05;
  static constexpr size_t kDeletesPerPass = 100;
  static constexpr size_t kSurvivorChecksAfterCompact = 4;

  ComplianceWorkload(const RunOptions& options, bullion::AsyncIoService* aio)
      : options_(options), aio_(aio) {
    spec_.ads_scale = 0.0005;
    spec_.seq_length = 32;
    spec_.users = 512;
    spec_.rows_per_user = 4;
    spec_.rows_per_group = 128;
    spec_.groups_per_shard = 2;
    spec_.rows_per_page = 64;
    spec_.deletable = true;
  }

  Status Setup() override {
    ds_.reset();
    cache_.reset();
    live_.reset();
    pristine_.reset();
    table_ = {};
    table_ = MakeTable(spec_, options_.seed);
    pristine_ = std::make_unique<CountedDir>(&stats_);
    live_ = std::make_unique<CountedDir>(&stats_);
    BULLION_ASSIGN_OR_RETURN(pristine_manifest_, WriteDataset(table_, spec_, *pristine_, aio_,
                                                              kWorkerThreads, "events"));
    projection_ = PickProjection(table_.schema, 1);
    names_ = LeafNames(table_.schema, projection_);
    const std::vector<ColumnVector> proj = Project(table_.cols, projection_);
    user_digest_.clear();
    user_bytes_.clear();
    for (const auto& rows : table_.user_rows) {
      user_digest_.push_back(DigestOf(proj, rows));
      user_bytes_.push_back(RowsUserBytes(table_, rows));
    }
    std::vector<uint32_t> perm(spec_.users);
    for (uint32_t u = 0; u < spec_.users; ++u) perm[u] = u;
    bullion::Random rng(options_.seed * 11 + 5);
    for (size_t i = perm.size(); i > 1; --i) std::swap(perm[i - 1], perm[rng.Uniform(i)]);
    doomed_.assign(perm.begin(), perm.begin() + kDeletesPerPass);
    survivors_.assign(perm.begin() + kDeletesPerPass, perm.end());
    cache_ = std::make_unique<bullion::DecodedChunkCache>(64 * table_.rows(), &stats_);
    return Status::OK();
  }

  Status RunPass(PassRecord* pass, Checker* checker) override {
    // Untimed: every pass starts from the pristine dataset.
    BULLION_RETURN_NOT_OK(live_->CopyFrom(*pristine_));
    manifest_ = pristine_manifest_;
    BULLION_ASSIGN_OR_RETURN(ds_, ShardedTableReader::Open(manifest_, live_->ReadOpener()));
    cache_->Clear();
    deleted_.assign(manifest_.num_shards(), 0);
    uint64_t erased = 0;

    const IoStatsSnapshot before = stats_.Snapshot();
    PassClock clock;
    clock.Start();
    for (size_t i = 0; i < doomed_.size(); ++i) {
      const uint64_t t0 = NowNs();
      bool ok;
      {
        ScopedSpan span("bench.compliance_op", NextOpId());
        ok = DeleteUser(i, pass, checker);
      }
      pass->lat_ns.push_back(NowNs() - t0);
      pass->ops += 1;
      pass->ok_ops += ok ? 1 : 0;
      erased += user_bytes_[doomed_[i]];
    }
    clock.Stop();
    clock.Finish(pass);
    pass->io = IoStatsDelta(before, stats_.Snapshot());
    pass->user_bytes = erased;
    if (!amp_set_) {
      amp_set_ = true;
      amp_.read_bytes = pass->io.bytes_read;
      amp_.read_user_bytes = returned_;
      amp_.write_bytes = pass->io.bytes_written;
      amp_.write_user_bytes = erased;
      amp_.live_file_bytes = DatasetFileBytes(*live_, manifest_);
      amp_.live_user_bytes = UserBytes(table_.cols) - erased;
    }
    returned_ = 0;
    return Status::OK();
  }

  Amplification Amp() const override { return amp_; }

  ProbeTarget Target() override {
    ProbeTarget t;
    t.table = &table_;
    t.spec = &spec_;
    t.dir = pristine_.get();
    t.manifest = pristine_manifest_;
    t.projection = projection_;
    t.covered = {"delete"};
    return t;
  }

  std::map<std::string, double> Sizes() const override {
    return {{"rows", double(table_.rows())},
            {"leaves", double(table_.schema.num_leaves())},
            {"users", double(spec_.users)},
            {"rows_per_user", double(spec_.rows_per_user)},
            {"shards", double(pristine_manifest_.num_shards())},
            {"deletes_per_pass", double(kDeletesPerPass)},
            {"compact_threshold", kCompactThreshold},
            {"compact_threads", double(kWorkerThreads)}};
  }

 private:
  /// Checks the lookup of user `u` (or an absent user) against the
  /// reference digest.
  bool CheckUser(uint32_t u, bool gone, Checker* checker) {
    auto r = bullion::Lookup(ds_.get())
                 .Key("uid", Table::UidOf(u))
                 .Columns(names_)
                 .Cache(cache_.get())
                 .Aio(aio_)
                 .Run();
    if (!Noted(r.status())) return false;
    returned_ += UserBytes(r->columns);
    return checker->Same(DigestRows(r->columns), gone ? RowDigest{} : user_digest_[u]);
  }

  Status Reopen() {
    bullion::Result<std::unique_ptr<ShardedTableReader>> opened = Status::Unknown("not run");
    {
      ScopedSpan span("dataset.open");
      opened = ShardedTableReader::Open(manifest_, live_->ReadOpener());
    }
    BULLION_RETURN_NOT_OK(opened.status());
    ds_ = std::move(*opened);  // the previous reader closes outside the span
    return Status::OK();
  }

  bool DeleteUser(size_t i, PassRecord* pass, Checker* checker) {
    const uint32_t u = doomed_[i];
    const int64_t uid = Table::UidOf(u);
    const bullion::Filter eq("uid", bullion::CompareOp::kEq, uid);
    const uint64_t key_hash = bullion::BloomHashInt(uid);
    std::vector<std::vector<uint64_t>> rows(ds_->num_shards());
    uint64_t found = 0;
    bool ok = true;
    {
      ScopedSpan span("dataset.find");
      for (size_t s = 0; s < ds_->num_shards(); ++s) {
        const bullion::TableReader* shard = ds_->shard_reader(s);
        const bullion::FooterView& f = shard->footer();
        for (uint32_t g = 0; g < f.num_row_groups(); ++g) {
          if (!bullion::ZoneMapMayMatch(f.chunk_zone_map(g, 0), eq)) continue;
          auto bloom = bullion::BloomFilterView::Wrap(f.chunk_bloom(g, 0));
          if (bloom.ok() && !bloom->MayContain(key_hash)) continue;
          bullion::ReadOptions ro;
          ro.filter_deleted = false;
          ColumnVector col;
          if (!Noted(shard->ReadColumnChunk(g, 0, ro, &col))) {
            ok = false;
            continue;
          }
          for (size_t r = 0; r < col.num_rows(); ++r) {
            if (col.int_values()[r] == uid && !f.IsDeleted(g, static_cast<uint32_t>(r))) {
              rows[s].push_back(f.group_first_row(g) + r);
            }
          }
        }
        found += rows[s].size();
      }
    }
    ok &= found == table_.user_rows[u].size();
    for (size_t s = 0; s < rows.size(); ++s) {
      if (rows[s].empty()) continue;
      const std::string& name = manifest_.shard(s).name;
      auto rf = live_->OpenRead(name);
      auto uf = live_->OpenUpdate(name);
      if (!Noted(rf.status()) || !Noted(uf.status())) return false;
      bullion::Result<bullion::DeleteReport> rep = Status::Unknown("not run");
      {
        ScopedSpan span("format.delete");
        bullion::DeleteExecutor exec(rf->get(), uf->get(), ds_->shard_reader(s)->footer());
        rep = exec.DeleteRows(rows[s], bullion::ComplianceLevel::kLevel2);
      }
      if (!Noted(rep.status())) return false;
      ok &= rep->rows_deleted == rows[s].size();
      deleted_[s] += rep->rows_deleted;
      pass->extra["format.delete_calls"] += 1;
      pass->extra["format.delete_rows"] += rep->rows_deleted;
      pass->extra["format.delete_bytes_written"] += rep->total_bytes_written();
      pass->extra["format.delete_pages_rewritten"] += rep->pages_rewritten;
    }
    if (!Noted(Reopen())) return false;
    {
      ScopedSpan span("serve.verify");
      ok &= CheckUser(u, /*gone=*/true, checker);
      ok &= CheckUser(survivors_[i % survivors_.size()], /*gone=*/false, checker);
    }

    bool compact = false;
    for (size_t s = 0; s < deleted_.size(); ++s) {
      compact |= deleted_[s] >= kCompactThreshold * manifest_.shard(s).num_rows;
    }
    if (!compact) return ok;
    bullion::DatasetCompactor compactor(
        live_->ReadOpener(), live_->WriteOpener(),
        [this](const std::string& name) { return live_->Remove(name); });
    bullion::DatasetCompactionOptions copts;
    copts.min_deleted_fraction = kCompactThreshold;
    copts.threads = kWorkerThreads;
    copts.cache = cache_.get();
    bullion::Result<bullion::DatasetCompactionReport> rep = Status::Unknown("not run");
    {
      ScopedSpan span("dataset.compact");
      rep = compactor.Compact(manifest_, copts);
    }
    if (!Noted(rep.status())) return false;
    for (size_t s = 0; s < deleted_.size(); ++s) {
      if (rep->manifest.shard(s).generation != manifest_.shard(s).generation) deleted_[s] = 0;
    }
    manifest_ = rep->manifest;
    pass->extra["dataset.compact_calls"] += 1;
    pass->extra["dataset.compact_bytes_before"] += rep->bytes_before;
    pass->extra["dataset.compact_bytes_after"] += rep->bytes_after;
    if (!Noted(Reopen())) return false;
    ScopedSpan span("serve.verify");
    for (size_t k = 0; k < kSurvivorChecksAfterCompact; ++k) {
      ok &= CheckUser(survivors_[(i * kSurvivorChecksAfterCompact + k) % survivors_.size()],
                      /*gone=*/false, checker);
    }
    return ok;
  }

  RunOptions options_;
  bullion::AsyncIoService* aio_;
  TableSpec spec_;
  Table table_;
  IoStats stats_;
  std::unique_ptr<CountedDir> pristine_;
  std::unique_ptr<CountedDir> live_;
  ShardManifest pristine_manifest_;
  ShardManifest manifest_;
  std::unique_ptr<ShardedTableReader> ds_;
  std::vector<uint32_t> projection_;
  std::vector<std::string> names_;
  std::vector<RowDigest> user_digest_;
  std::vector<uint64_t> user_bytes_;
  std::vector<uint32_t> doomed_;
  std::vector<uint32_t> survivors_;
  std::vector<uint64_t> deleted_;  // rows deleted per shard since its last rewrite
  std::unique_ptr<bullion::DecodedChunkCache> cache_;
  uint64_t returned_ = 0;
  Amplification amp_;
  bool amp_set_ = false;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const RunOptions& options,
                                       bullion::AsyncIoService* aio) {
  if (options.workload == "ingest") return std::make_unique<IngestWorkload>(options, aio);
  if (options.workload == "train_scan") return std::make_unique<TrainScanWorkload>(options, aio);
  if (options.workload == "serve_lookup") return std::make_unique<ServeLookupWorkload>(options, aio);
  if (options.workload == "compliance") return std::make_unique<ComplianceWorkload>(options, aio);
  return nullptr;
}

}  // namespace perfbench
