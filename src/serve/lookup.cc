#include "serve/lookup.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace bullion {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Dotted leaf names of the default (all-leaves) projection, from the
// footer that governs column resolution: the file's own, or the newest
// shard's for a dataset (earlier shards are validated prefixes of it).
std::vector<std::string> DefaultProjectionNames(const FooterView& footer) {
  std::vector<std::string> names;
  names.reserve(footer.num_columns());
  for (uint32_t c = 0; c < footer.num_columns(); ++c) {
    names.emplace_back(footer.column_name(c));
  }
  return names;
}

}  // namespace

Result<LookupResult> LookupBuilder::Run() const {
  if (!has_key_) {
    return Status::InvalidArgument(
        "Lookup requires Key() or Keys(): use bullion::Scan for "
        "unkeyed reads");
  }
  const uint64_t start_ns = NowNs();
  static obs::Counter* requests =
      obs::MetricsRegistry::Global().GetCounter("bullion.lookup.requests");
  static obs::Counter* keys =
      obs::MetricsRegistry::Global().GetCounter("bullion.lookup.keys");
  static obs::Counter* rows =
      obs::MetricsRegistry::Global().GetCounter("bullion.lookup.rows");
  static obs::Counter* misses =
      obs::MetricsRegistry::Global().GetCounter("bullion.lookup.misses");
  static obs::LatencyHistogram* latency =
      obs::MetricsRegistry::Global().GetHistogram(
          "bullion.lookup.latency_ns");
  requests->Increment();
  keys->Increment(num_keys_);

  LookupResult result;
  if (!builder_.spec().column_names.empty()) {
    result.column_names = builder_.spec().column_names;
  } else if (file_ != nullptr) {
    result.column_names = DefaultProjectionNames(file_->footer());
  } else if (dataset_->num_shards() > 0) {
    result.column_names = DefaultProjectionNames(
        dataset_->shard_reader(dataset_->num_shards() - 1)->footer());
  }

  BULLION_ASSIGN_OR_RETURN(auto stream, builder_.Stream());
  RowBatch batch;
  bool first = true;
  for (;;) {
    BULLION_ASSIGN_OR_RETURN(bool more, stream->Next(&batch));
    if (!more) break;
    if (first) {
      result.columns = std::move(batch.columns);
      first = false;
      continue;
    }
    for (size_t c = 0; c < result.columns.size(); ++c) {
      result.columns[c].AppendAllFrom(batch.columns[c]);
    }
  }
  // A miss (every extent pruned) emits no batches; `columns` stays
  // empty and num_rows() == 0 — callers test rows, not column count.

  rows->Increment(result.num_rows());
  if (result.num_rows() == 0) misses->Increment();
  latency->Record(NowNs() - start_ns);
  return result;
}

}  // namespace bullion
