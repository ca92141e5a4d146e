#include "perfbench/src/table.h"

#include <algorithm>
#include <set>

namespace perfbench {

using bullion::ColumnVector;
using bullion::DataType;
using bullion::Field;
using bullion::LogicalType;
using bullion::PhysicalType;

Table MakeTable(const TableSpec& spec, uint64_t seed) {
  bullion::Schema ads = bullion::workload::BuildAdsSchema(spec.ads_scale);
  std::vector<Field> fields;
  fields.push_back(Field{"uid", DataType::Primitive(PhysicalType::kInt64),
                         LogicalType::kPlain, spec.deletable});
  for (const Field& f : ads.fields()) {
    fields.push_back(f);
  }

  if (spec.deletable) {
    // The writer restricts only int-domain pages to maskable encodings,
    // so only fields whose every leaf is an int may be flagged.
    const bullion::Schema flat(fields);
    for (size_t f = 0; f < fields.size(); ++f) {
      bool ints = true;
      for (const bullion::LeafColumn& leaf : flat.leaves()) {
        if (leaf.field_index == f) {
          ints &= bullion::DomainOf(leaf.physical) == bullion::ValueDomain::kInt;
        }
      }
      fields[f].deletable = ints;
    }
  }
  Table table;
  table.schema = bullion::Schema(std::move(fields));
  const uint64_t rows = spec.rows();

  // Row r of the shuffled order belongs to user owner[r].
  std::vector<uint32_t> owner(rows);
  for (uint64_t r = 0; r < rows; ++r) {
    owner[r] = static_cast<uint32_t>(r / spec.rows_per_user);
  }
  bullion::Random rng(seed * 0x2545F4914F6CDD1Dull + 17);
  for (uint64_t i = rows; i > 1; --i) {
    std::swap(owner[i - 1], owner[rng.Uniform(i)]);
  }
  table.user_rows.resize(spec.users);
  ColumnVector uid(PhysicalType::kInt64, 0);
  for (uint64_t r = 0; r < rows; ++r) {
    uid.AppendInt(Table::UidOf(owner[r]));
    table.user_rows[owner[r]].push_back(static_cast<uint32_t>(r));
  }

  bullion::workload::AdsDataOptions opts;
  opts.seq_length = spec.seq_length;
  std::vector<ColumnVector> data =
      bullion::workload::GenerateAdsData(ads, rows, seed, opts);
  table.cols.reserve(data.size() + 1);
  table.cols.push_back(std::move(uid));
  for (ColumnVector& c : data) table.cols.push_back(std::move(c));
  return table;
}

std::vector<uint32_t> PickProjection(const bullion::Schema& schema,
                                     size_t id_seqs) {
  std::vector<uint32_t> out = {0};  // uid
  std::set<std::string> seen_types;
  size_t seqs = 0;
  const auto& leaves = schema.leaves();
  for (uint32_t i = 1; i < leaves.size(); ++i) {
    const bullion::LeafColumn& leaf = leaves[i];
    if (leaf.logical == LogicalType::kIdSequence) {
      if (seqs < id_seqs) {
        out.push_back(i);
        ++seqs;
      }
      continue;
    }
    // One leaf per (physical type, list depth) among the other types.
    std::string key = std::string(bullion::PhysicalTypeName(leaf.physical)) +
                      "/" + std::to_string(leaf.list_depth);
    if (seen_types.insert(key).second) out.push_back(i);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> LeafNames(const bullion::Schema& schema,
                                   const std::vector<uint32_t>& leaves) {
  std::vector<std::string> names;
  for (uint32_t i : leaves) names.push_back(schema.leaves()[i].name);
  return names;
}

std::vector<ColumnVector> Project(const std::vector<ColumnVector>& cols,
                                  const std::vector<uint32_t>& leaves) {
  std::vector<ColumnVector> out;
  for (uint32_t i : leaves) out.push_back(cols[i]);
  return out;
}

bullion::ShardedWriterOptions DatasetWriterOptions(
    const TableSpec& spec, bullion::AsyncIoService* aio, IoStats* stats,
    const std::string& base_name) {
  bullion::ShardedWriterOptions opts;
  opts.rows_per_group = spec.rows_per_group;
  opts.target_rows_per_shard =
      static_cast<uint64_t>(spec.rows_per_group) * spec.groups_per_shard;
  opts.base_name = base_name;
  opts.writer.rows_per_page = spec.rows_per_page;
  opts.writer.aio = aio;
  opts.writer.stats = stats;
  return opts;
}

bullion::Result<bullion::ShardManifest> WriteDataset(
    const Table& table, const TableSpec& spec, const CountedDir& dir,
    bullion::AsyncIoService* aio, size_t threads,
    const std::string& base_name) {
  bullion::ShardedWriterOptions opts =
      DatasetWriterOptions(spec, aio, dir.stats(), base_name);
  opts.threads = threads;
  bullion::ShardedTableWriter writer(table.schema, opts, dir.WriteOpener());
  BULLION_RETURN_NOT_OK(writer.Append(table.cols));
  return writer.Finish();
}

}  // namespace perfbench
