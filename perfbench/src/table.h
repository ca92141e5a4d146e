// The one table shape every workload uses: a `uid` user-id column in
// front of the paper's ads schema (workload::BuildAdsSchema, Table 1
// type mix, kIdSequence sliding-window id lists per §2.2). Workloads
// differ only in width, row count, sequence length and layout.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/bullion.h"
#include "perfbench/src/harness.h"
#include "workload/ads_schema.h"

namespace perfbench {

struct TableSpec {
  double ads_scale = 0.001;   // BuildAdsSchema scale (1.0 = ~17.7k columns)
  uint32_t seq_length = 64;   // ids per kIdSequence row
  uint64_t users = 1024;      // distinct uids
  uint32_t rows_per_user = 1;
  uint32_t rows_per_group = 1024;
  uint32_t groups_per_shard = 4;
  uint32_t rows_per_page = 256;
  /// Flag every all-int field deletable: level-2 deletes erase those
  /// values in place.
  bool deletable = false;

  uint64_t rows() const { return users * rows_per_user; }
};

/// Row data in dataset order. uid of user u is 2 * (u + 1): every even
/// uid in [2, 2 * users] is present and every odd uid in between is an
/// absent key inside every zone map's range.
struct Table {
  bullion::Schema schema;
  std::vector<ColumnVector> cols;
  /// Row indices of each user, ascending.
  std::vector<std::vector<uint32_t>> user_rows;

  uint64_t rows() const { return cols.empty() ? 0 : cols[0].num_rows(); }
  static int64_t UidOf(uint64_t user) {
    return 2 * static_cast<int64_t>(user + 1);
  }
};

/// Deterministic in (spec, seed): rows are shuffled so each user's rows
/// land in random groups and shards, as time-ordered event data would.
Table MakeTable(const TableSpec& spec, uint64_t seed);

/// Leaf indices of `schema` to project for a "minority of a wide table
/// plus the sparse id sequences" read: uid, `id_seqs` kIdSequence
/// leaves and one leaf of every other Table 1 type.
std::vector<uint32_t> PickProjection(const bullion::Schema& schema,
                                     size_t id_seqs);
std::vector<std::string> LeafNames(const bullion::Schema& schema,
                                   const std::vector<uint32_t>& leaves);
/// Columns `leaves` of `cols`, in order.
std::vector<ColumnVector> Project(const std::vector<ColumnVector>& cols,
                                  const std::vector<uint32_t>& leaves);

/// Writer options shared by every dataset the benchmark writes: the
/// pinned AIO service and the write-side IoStats.
bullion::ShardedWriterOptions DatasetWriterOptions(
    const TableSpec& spec, bullion::AsyncIoService* aio, IoStats* stats,
    const std::string& base_name);

/// Writes `table` as a sharded dataset through ShardedTableWriter with
/// `threads` encode workers.
bullion::Result<bullion::ShardManifest> WriteDataset(
    const Table& table, const TableSpec& spec, const CountedDir& dir,
    bullion::AsyncIoService* aio, size_t threads, const std::string& base_name);

}  // namespace perfbench
