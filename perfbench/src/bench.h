// The perfbench model: a workload is set up (several times, so
// set-up time has a median), then runs whole passes of a fixed, seeded
// op sequence until the run's time is spent. Every pass of a workload
// starts from the same state, so every count a pass makes repeats
// exactly; times are reported per pass and summarized by their median.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/bullion.h"
#include "perfbench/src/harness.h"
#include "perfbench/src/table.h"

namespace perfbench {

/// Threads the benchmark runs the library with. Together with the
/// consuming thread they stay within a 4-core box: one AIO lane, two
/// pool workers (encode or scan) and one client or consumer thread.
/// serve_lookup's client runs serial lookups on the lane. Two clients
/// made its heap peak depend on how their lookups interleaved.
inline constexpr int kAioLanes = 1;
inline constexpr size_t kWorkerThreads = 2;
inline constexpr size_t kClientThreads = 1;

struct PassRecord {
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  /// Decoded bytes accepted, emitted, returned or erased.
  uint64_t user_bytes = 0;
  uint64_t ops = 0;
  uint64_t ok_ops = 0;
  /// Heap high-water mark of the pass above the bytes held at its start.
  uint64_t heap_bytes = 0;
  std::vector<uint64_t> lat_ns;
  /// Counted I/O of the pass (every file the workload opened).
  IoStatsSnapshot io;
  /// Per-layer counts only this workload's ops can make, keyed by the
  /// counter names the report's `counters` use.
  std::map<std::string, uint64_t> extra;
};

/// Bases of the three amplification ratios, all exact counts.
struct Amplification {
  uint64_t read_bytes = 0;        // bytes pread
  uint64_t read_user_bytes = 0;   // decoded bytes returned by those reads
  uint64_t write_bytes = 0;       // bytes written to files
  uint64_t write_user_bytes = 0;  // decoded bytes written or erased
  uint64_t live_file_bytes = 0;   // file bytes live at the end
  uint64_t live_user_bytes = 0;   // decoded bytes live at the end
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Negative control: corrupt one expected answer.
  bool corrupt = false;
};

/// Verifies one op's answer; with the negative control armed, the
/// first check of the run is made against a corrupted expectation.
/// Thread-safe: serve_lookup's clients share one checker.
class Checker {
 public:
  explicit Checker(bool corrupt) : corrupt_(corrupt) {}
  /// True when `got` matches `want` (after the one-shot corruption).
  bool Same(const RowDigest& got, RowDigest want) {
    if (corrupt_.load(std::memory_order_relaxed) && corrupt_.exchange(false)) {
      want.sum += 1;
    }
    return got == want;
  }

 private:
  std::atomic<bool> corrupt_;
};

/// What the layer probes run against: the workload's own table and a
/// dataset of it on disk.
struct ProbeTarget {
  const Table* table = nullptr;
  const TableSpec* spec = nullptr;
  const CountedDir* dir = nullptr;
  bullion::ShardManifest manifest;
  std::vector<uint32_t> projection;
  /// Probes the workload's own ops already cover ("write", "exec.next",
  /// "serve.lookup", "delete"); RunProbes skips them so every metric
  /// has one source per workload.
  std::set<std::string> covered;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds all state from the seed; called again to re-measure setup,
  /// each call replacing the previous state.
  virtual bullion::Status Setup() = 0;
  /// Runs one pass of the fixed op sequence. A pass's outputs stay on
  /// disk until the next pass starts, so the probes can read them.
  virtual bullion::Status RunPass(PassRecord* pass, Checker* checker) = 0;
  virtual Amplification Amp() const = 0;
  virtual ProbeTarget Target() = 0;
  virtual std::map<std::string, double> Sizes() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const RunOptions& options,
                                       bullion::AsyncIoService* aio);

/// Runs every layer probe the target does not cover, recording spans
/// and adding the probes' counts to `counters`.
bullion::Status RunProbes(const ProbeTarget& target,
                          bullion::AsyncIoService* aio,
                          std::map<std::string, uint64_t>* counters);

}  // namespace perfbench
