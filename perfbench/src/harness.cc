#include "perfbench/src/harness.h"

#include <malloc.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>

#include "common/hash.h"

namespace perfbench {

using bullion::Result;
using bullion::Status;

namespace {

uint64_t ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

uint64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }
uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

namespace {

std::atomic<int64_t> g_heap_live{0};
std::atomic<int64_t> g_heap_peak{0};

void* Counted(void* p) {
  if (p == nullptr) return p;
  const int64_t size = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t live = g_heap_live.fetch_add(size, std::memory_order_relaxed) + size;
  int64_t peak = g_heap_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_heap_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void Uncounted(void* p) {
  if (p == nullptr) return;
  g_heap_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                        std::memory_order_relaxed);
  std::free(p);
}

void* AllocOrThrow(size_t n) {
  void* p = Counted(std::malloc(n == 0 ? 1 : n));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AlignedOrThrow(size_t n, std::align_val_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, std::max(sizeof(void*), static_cast<size_t>(align)),
                     n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc();
  }
  return Counted(p);
}

}  // namespace

int64_t ResetHeapPeak() {
  const int64_t live = g_heap_live.load(std::memory_order_relaxed);
  g_heap_peak.store(live, std::memory_order_relaxed);
  return live;
}

int64_t HeapPeakBytes() { return g_heap_peak.load(std::memory_order_relaxed); }

// ------------------------------------------------------------- tracing

namespace {

std::atomic<uint32_t> g_next_thread{0};

struct ThreadState {
  uint32_t id = g_next_thread.fetch_add(1);
  std::vector<int64_t> open;  // indices of this thread's open spans
};

ThreadState& Local() {
  thread_local ThreadState state;
  return state;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::Begin(const char* name, uint64_t op) {
  ThreadState& t = Local();
  const int64_t parent = t.open.empty() ? -1 : t.open.back();
  const uint64_t start = NowNs();
  int64_t index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (op == 0 && parent >= 0) op = spans_[parent].op;
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back(Span{name, start, 0, parent, op, t.id, 0});
  }
  t.open.push_back(index);
  return index;
}

void Tracer::End(int64_t index, uint64_t end_ns, uint64_t bytes) {
  ThreadState& t = Local();
  if (!t.open.empty() && t.open.back() == index) t.open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end_ns = end_ns;
  spans_[index].bytes = bytes;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%lld\t%llu\t%u\t%s\t%llu\t%llu\t%llu\n", i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.thread, s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.bytes));
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------- counted files

namespace {

/// One memfd; closed when the directory and every open handle let go.
struct MemFile {
  explicit MemFile(int fd) : fd(fd) {}
  ~MemFile() { ::close(fd); }
  MemFile(const MemFile&) = delete;
  MemFile& operator=(const MemFile&) = delete;
  const int fd;
};

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Result<uint64_t> SizeOf(const MemFile& f) {
  struct stat st;
  if (::fstat(f.fd, &st) != 0) return Errno("fstat");
  return static_cast<uint64_t>(st.st_size);
}

Result<std::shared_ptr<MemFile>> NewMemFile(const std::string& name) {
  const int fd = ::memfd_create(name.c_str(), MFD_CLOEXEC);
  if (fd < 0) return Errno("memfd_create " + name);
  return std::make_shared<MemFile>(fd);
}

Status PwriteFully(const MemFile& f, const uint8_t* data, size_t len, uint64_t offset) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::pwrite(f.fd, data + done, len - done, static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pwrite");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status PreadFully(const MemFile& f, uint8_t* data, size_t len, uint64_t offset) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::pread(f.fd, data + done, len - done, static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pread");
    }
    if (n == 0) return Status::OutOfRange("short read at EOF");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::shared_ptr<MemFile>> CopyOf(const MemFile& src, const std::string& name) {
  BULLION_ASSIGN_OR_RETURN(auto dst, NewMemFile(name));
  BULLION_ASSIGN_OR_RETURN(uint64_t size, SizeOf(src));
  std::vector<uint8_t> buf(size);
  BULLION_RETURN_NOT_OK(PreadFully(src, buf.data(), buf.size(), 0));
  BULLION_RETURN_NOT_OK(PwriteFully(*dst, buf.data(), buf.size(), 0));
  return dst;
}

class CountingReadFile : public bullion::RandomAccessFile {
 public:
  CountingReadFile(std::shared_ptr<MemFile> file, IoStats* stats)
      : file_(std::move(file)), stats_(stats) {}

  Status Read(uint64_t offset, size_t len, bullion::Buffer* out) const override {
    out->Resize(len);
    BULLION_RETURN_NOT_OK(PreadFully(*file_, out->mutable_data(), len, offset));
    stats_->read_ops += 1;
    stats_->bytes_read += len;
    return Status::OK();
  }
  Result<uint64_t> Size() const override { return SizeOf(*file_); }

 private:
  std::shared_ptr<MemFile> file_;
  IoStats* stats_;
};

/// Mirrors InMemoryWritableFile's accounting: Append and WriteAt are
/// logical writes and physical calls; AppendBlock is a physical call
/// whose logical appends the aggregation layer already counted.
class CountingWriteFile : public bullion::WritableFile {
 public:
  CountingWriteFile(std::shared_ptr<MemFile> file, uint64_t size, IoStats* stats)
      : file_(std::move(file)), size_(size), stats_(stats) {}

  Status Append(bullion::Slice data) override {
    BULLION_RETURN_NOT_OK(AppendBlock(data));
    stats_->write_ops += 1;
    return Status::OK();
  }
  Status AppendBlock(bullion::Slice data) override {
    BULLION_RETURN_NOT_OK(PwriteFully(*file_, data.data(), data.size(), size_));
    size_ += data.size();
    stats_->write_calls += 1;
    stats_->bytes_written += data.size();
    return Status::OK();
  }
  Status WriteAt(uint64_t offset, bullion::Slice data) override {
    if (offset + data.size() > size_) {
      return Status::InvalidArgument("WriteAt would extend file");
    }
    BULLION_RETURN_NOT_OK(PwriteFully(*file_, data.data(), data.size(), offset));
    stats_->write_ops += 1;
    stats_->write_calls += 1;
    stats_->bytes_written += data.size();
    return Status::OK();
  }
  Status Flush() override {
    stats_->flush_calls += 1;
    return Status::OK();
  }
  Result<uint64_t> Size() const override { return size_; }
  IoStats* stats() const override { return stats_; }

 private:
  std::shared_ptr<MemFile> file_;
  uint64_t size_;  // single writer per handle (TableWriter commit order)
  IoStats* stats_;
};

}  // namespace

struct CountedDir::Files {
  std::mutex mu;
  std::map<std::string, std::shared_ptr<MemFile>> by_name;

  Result<std::shared_ptr<MemFile>> Find(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = by_name.find(name);
    if (it == by_name.end()) return Status::NotFound("no file " + name);
    return it->second;
  }
};

CountedDir::CountedDir(IoStats* stats)
    : files_(std::make_shared<Files>()), stats_(stats) {}

Result<std::unique_ptr<bullion::RandomAccessFile>> CountedDir::OpenRead(
    const std::string& name) const {
  BULLION_ASSIGN_OR_RETURN(auto file, files_->Find(name));
  return std::unique_ptr<bullion::RandomAccessFile>(
      new CountingReadFile(std::move(file), stats_));
}

Result<std::unique_ptr<bullion::WritableFile>> CountedDir::Create(
    const std::string& name) const {
  BULLION_ASSIGN_OR_RETURN(auto file, NewMemFile(name));
  {
    std::lock_guard<std::mutex> lock(files_->mu);
    files_->by_name[name] = file;
  }
  return std::unique_ptr<bullion::WritableFile>(
      new CountingWriteFile(std::move(file), 0, stats_));
}

Result<std::unique_ptr<bullion::WritableFile>> CountedDir::OpenUpdate(
    const std::string& name) const {
  BULLION_ASSIGN_OR_RETURN(auto file, files_->Find(name));
  BULLION_ASSIGN_OR_RETURN(uint64_t size, SizeOf(*file));
  return std::unique_ptr<bullion::WritableFile>(
      new CountingWriteFile(std::move(file), size, stats_));
}

Status CountedDir::Remove(const std::string& name) const {
  std::lock_guard<std::mutex> lock(files_->mu);
  if (files_->by_name.erase(name) == 0) return Status::NotFound("no file " + name);
  return Status::OK();
}

Result<uint64_t> CountedDir::FileSize(const std::string& name) const {
  BULLION_ASSIGN_OR_RETURN(auto file, files_->Find(name));
  return SizeOf(*file);
}

void CountedDir::Clear() const {
  std::lock_guard<std::mutex> lock(files_->mu);
  files_->by_name.clear();
}

Status CountedDir::CopyFrom(const CountedDir& from) const {
  std::map<std::string, std::shared_ptr<MemFile>> copy;
  {
    std::lock_guard<std::mutex> lock(from.files_->mu);
    for (const auto& [name, file] : from.files_->by_name) {
      BULLION_ASSIGN_OR_RETURN(copy[name], CopyOf(*file, name));
    }
  }
  std::lock_guard<std::mutex> lock(files_->mu);
  files_->by_name = std::move(copy);
  return Status::OK();
}

Status CountedDir::CopyFile(const CountedDir& from, const std::string& from_name,
                            const std::string& to_name) const {
  BULLION_ASSIGN_OR_RETURN(auto src, from.files_->Find(from_name));
  BULLION_ASSIGN_OR_RETURN(auto dst, CopyOf(*src, to_name));
  std::lock_guard<std::mutex> lock(files_->mu);
  files_->by_name[to_name] = std::move(dst);
  return Status::OK();
}

bullion::ShardedTableReader::FileOpener CountedDir::ReadOpener() const {
  return [this](const std::string& name) { return OpenRead(name); };
}

bullion::ShardedTableWriter::FileOpener CountedDir::WriteOpener() const {
  return [this](const std::string& name) { return Create(name); };
}

uint64_t DatasetFileBytes(const CountedDir& dir,
                          const bullion::ShardManifest& manifest) {
  uint64_t total = 0;
  for (size_t s = 0; s < manifest.num_shards(); ++s) {
    auto size = dir.FileSize(manifest.shard(s).name);
    if (size.ok()) total += *size;
  }
  return total;
}

// ------------------------------------------------ bytes and row hashes

namespace {

uint64_t ValueWidth(const ColumnVector& col) {
  return static_cast<uint64_t>(bullion::ByteWidth(col.physical()));
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h *= 0xFF51AFD7ED558CCDull;
  return h ^ (h >> 33);
}

}  // namespace

std::pair<size_t, size_t> LeafRange(const ColumnVector& col, size_t row_begin,
                                    size_t row_end) {
  size_t begin = row_begin, end = row_end;
  for (int level = 0; level < col.list_depth(); ++level) {
    const std::vector<int64_t>& off = col.offsets()[level];
    begin = static_cast<size_t>(off[begin]);
    end = static_cast<size_t>(off[end]);
  }
  return {begin, end};
}

uint64_t UserBytes(const ColumnVector& col) {
  if (col.domain() == bullion::ValueDomain::kBinary) {
    uint64_t total = 0;
    for (const std::string& s : col.bin_values()) total += s.size();
    return total;
  }
  return static_cast<uint64_t>(col.LeafCount()) * ValueWidth(col);
}

uint64_t UserBytes(const std::vector<ColumnVector>& cols) {
  uint64_t total = 0;
  for (const ColumnVector& c : cols) total += UserBytes(c);
  return total;
}

uint64_t RowUserBytes(const ColumnVector& col, size_t row) {
  auto [begin, end] = LeafRange(col, row, row + 1);
  if (col.domain() == bullion::ValueDomain::kBinary) {
    uint64_t total = 0;
    for (size_t i = begin; i < end; ++i) total += col.bin_values()[i].size();
    return total;
  }
  return static_cast<uint64_t>(end - begin) * ValueWidth(col);
}

uint64_t RowHash(const ColumnVector& col, size_t row) {
  uint64_t h = 0x243F6A8885A308D3ull;
  // List structure: the lengths at every level below the row.
  size_t begin = row, end = row + 1;
  for (int level = 0; level < col.list_depth(); ++level) {
    const std::vector<int64_t>& off = col.offsets()[level];
    for (size_t i = begin; i < end; ++i) {
      h = Mix(h, static_cast<uint64_t>(off[i + 1] - off[i]));
    }
    begin = static_cast<size_t>(off[begin]);
    end = static_cast<size_t>(off[end]);
  }
  switch (col.domain()) {
    case bullion::ValueDomain::kBinary:
      for (size_t i = begin; i < end; ++i) {
        const std::string& s = col.bin_values()[i];
        h = Mix(h, bullion::XxHash64(s.data(), s.size()));
      }
      break;
    case bullion::ValueDomain::kReal:
      for (size_t i = begin; i < end; ++i) {
        uint64_t bits;
        std::memcpy(&bits, &col.real_values()[i], sizeof(bits));
        h = Mix(h, bits);
      }
      break;
    default:
      for (size_t i = begin; i < end; ++i) {
        h = Mix(h, static_cast<uint64_t>(col.int_values()[i]));
      }
      break;
  }
  if (col.has_validity()) h = Mix(h, col.IsNull(row) ? 1 : 2);
  return h;
}

uint64_t RowHash(const std::vector<ColumnVector>& cols, size_t row) {
  uint64_t h = 0x13198A2E03707344ull;
  for (const ColumnVector& c : cols) h = Mix(h, RowHash(c, row));
  return h;
}

RowDigest DigestRows(const std::vector<ColumnVector>& cols) {
  RowDigest d;
  const size_t rows = cols.empty() ? 0 : cols[0].num_rows();
  for (size_t r = 0; r < rows; ++r) d.Add(RowHash(cols, r));
  return d;
}

std::vector<ColumnVector> SliceRows(const std::vector<ColumnVector>& cols,
                                    size_t begin, size_t end) {
  std::vector<ColumnVector> out;
  out.reserve(cols.size());
  for (const ColumnVector& c : cols) {
    ColumnVector s(c.physical(), c.list_depth());
    for (size_t r = begin; r < end; ++r) {
      s.AppendRowFrom(c, static_cast<int64_t>(r));
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench

// Every C++ allocation of the process, the library's included, goes
// through these replacements of the global operator new and delete, so
// HeapPeakBytes() sees it.

void* operator new(size_t n) { return perfbench::AllocOrThrow(n); }
void* operator new[](size_t n) { return perfbench::AllocOrThrow(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return perfbench::Counted(std::malloc(n == 0 ? 1 : n));
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return perfbench::Counted(std::malloc(n == 0 ? 1 : n));
}
void* operator new(size_t n, std::align_val_t a) { return perfbench::AlignedOrThrow(n, a); }
void* operator new[](size_t n, std::align_val_t a) { return perfbench::AlignedOrThrow(n, a); }
void operator delete(void* p) noexcept { perfbench::Uncounted(p); }
void operator delete[](void* p) noexcept { perfbench::Uncounted(p); }
void operator delete(void* p, size_t) noexcept { perfbench::Uncounted(p); }
void operator delete[](void* p, size_t) noexcept { perfbench::Uncounted(p); }
void operator delete(void* p, std::align_val_t) noexcept { perfbench::Uncounted(p); }
void operator delete[](void* p, std::align_val_t) noexcept { perfbench::Uncounted(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { perfbench::Uncounted(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept { perfbench::Uncounted(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { perfbench::Uncounted(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { perfbench::Uncounted(p); }
