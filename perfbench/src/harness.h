// Measurement harness shared by the perfbench workloads: monotonic
// timers, process CPU, heap accounting, span tracing, IoStats-counting
// wrappers over fd-backed files, and the decoded-byte and row-hash
// definitions every metric and correctness check is computed from.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/bullion.h"

namespace perfbench {

using bullion::ColumnVector;
using bullion::IoStats;
using bullion::IoStatsSnapshot;

uint64_t NowNs();
/// CPU time of the whole process (every thread), in nanoseconds.
uint64_t ProcessCpuNs();
// Heap accounting: harness.cc replaces the global operator new and
// delete, so every C++ allocation of the process, the library's
// included, is counted at its usable size.

/// Sets the heap high-water mark to the bytes held now; returns them.
int64_t ResetHeapPeak();
/// Highest bytes held by C++ allocations since ResetHeapPeak().
int64_t HeapPeakBytes();

// ------------------------------------------------------------- tracing

/// One recorded span. `parent` is the index of the enclosing span on
/// the same thread (-1 at top level); `op` is the workload op the span
/// belongs to (0 outside any op).
struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;
  uint64_t op;
  uint32_t thread;
  uint64_t bytes;  // decoded bytes the span processed (0 = not a byte span)
};

/// In-memory span recorder. Disabled, a ScopedSpan costs one load and
/// a branch; enabled, spans are appended under a mutex and written out
/// once, at exit.
class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span on the calling thread; returns its index.
  int64_t Begin(const char* name, uint64_t op);
  void End(int64_t index, uint64_t end_ns, uint64_t bytes);

  /// Writes every span as tab-separated lines:
  /// index, parent, op, thread, name, start_ns, end_ns, bytes.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t op = 0) {
    if (Tracer::Get().enabled()) index_ = Tracer::Get().Begin(name, op);
  }
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::Get().End(index_, stop_ns_ != 0 ? stop_ns_ : NowNs(), bytes_);
  }
  /// Ends the timed interval now; the span is recorded at destruction,
  /// so work done after Stop() (such as counting the bytes for
  /// set_bytes) is not timed.
  void Stop() {
    if (index_ >= 0 && stop_ns_ == 0) stop_ns_ = NowNs();
  }
  void set_bytes(uint64_t bytes) { bytes_ = bytes; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_ = -1;
  uint64_t stop_ns_ = 0;
  uint64_t bytes_ = 0;
};

// ------------------------------------------------------- counted files

/// A memory-backed directory of fd-backed files: every file is a
/// memfd, read with pread and written with pwrite, so no byte reaches a
/// disk and other tenants' writeback stays out of the numbers. Every
/// pread, write and flush is counted into an IoStats, the way
/// InMemoryFileSystem counts in-memory files. RawFd() is hidden (-1), so
/// every AIO tier routes reads through the counting Read(). Flush() is
/// counted; it has nothing to force to disk.
class CountedDir {
 public:
  /// A new, empty directory.
  explicit CountedDir(IoStats* stats);
  /// The same files as `files`, counted into `stats`.
  CountedDir(const CountedDir& files, IoStats* stats)
      : files_(files.files_), stats_(stats) {}

  IoStats* stats() const { return stats_; }

  bullion::Result<std::unique_ptr<bullion::RandomAccessFile>> OpenRead(
      const std::string& name) const;
  bullion::Result<std::unique_ptr<bullion::WritableFile>> Create(
      const std::string& name) const;
  /// Opens an existing file for in-place updates (no truncation).
  bullion::Result<std::unique_ptr<bullion::WritableFile>> OpenUpdate(
      const std::string& name) const;
  bullion::Status Remove(const std::string& name) const;
  bullion::Result<uint64_t> FileSize(const std::string& name) const;

  /// Drops every file.
  void Clear() const;
  /// Replaces every file with a copy of `from`'s (uncounted).
  bullion::Status CopyFrom(const CountedDir& from) const;
  /// Copies `from`'s file `from_name` here as `to_name` (uncounted).
  bullion::Status CopyFile(const CountedDir& from, const std::string& from_name,
                           const std::string& to_name) const;

  bullion::ShardedTableReader::FileOpener ReadOpener() const;
  bullion::ShardedTableWriter::FileOpener WriteOpener() const;

 private:
  struct Files;
  std::shared_ptr<Files> files_;
  IoStats* stats_;
};

/// Sum of the sizes of the manifest's shard files.
uint64_t DatasetFileBytes(const CountedDir& dir,
                          const bullion::ShardManifest& manifest);

// ------------------------------------------------ bytes and row hashes

/// Decoded ("user") bytes of a column: every leaf value at its physical
/// width, plus the payload length of every binary value. List offsets
/// and validity bitmaps are not counted.
uint64_t UserBytes(const ColumnVector& col);
uint64_t UserBytes(const std::vector<ColumnVector>& cols);
/// Leaf-value index range [first, last) of rows [row_begin, row_end).
std::pair<size_t, size_t> LeafRange(const ColumnVector& col, size_t row_begin,
                                    size_t row_end);
/// Decoded bytes of one row of a column.
uint64_t RowUserBytes(const ColumnVector& col, size_t row);

/// Hash of one row of one column (values and list structure).
uint64_t RowHash(const ColumnVector& col, size_t row);
/// Hash of row `row` across `cols` (a projection, in order).
uint64_t RowHash(const std::vector<ColumnVector>& cols, size_t row);

/// Order-independent digest of a set of rows: row count plus the
/// wrapping sum of their row hashes.
struct RowDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  void Add(uint64_t row_hash) {
    rows += 1;
    sum += row_hash;
  }
  bool operator==(const RowDigest& o) const {
    return rows == o.rows && sum == o.sum;
  }
};
RowDigest DigestRows(const std::vector<ColumnVector>& cols);

/// Rows [begin, end) of `cols` as a new batch.
std::vector<ColumnVector> SliceRows(const std::vector<ColumnVector>& cols,
                                    size_t begin, size_t end);

// -------------------------------------------------------------- misc

std::string JsonEscape(const std::string& s);

}  // namespace perfbench
