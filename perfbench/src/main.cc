// perfbench: runs one seeded workload against the Bullion library and
// writes its raw measurements (per-pass times and latencies, exact
// counts, environment) as JSON; perfbench/run.py turns them into the
// reported metrics.
//
//   perfbench --workload train_scan --seed 1 --seconds 10 --trace 0
//             --out raw.json [--spans spans.tsv] [--corrupt]

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "encoding/cpu_dispatch.h"
#include "perfbench/src/bench.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Passes per phase at least, whatever the time budget.
constexpr size_t kMinPasses = 3;

struct Args {
  RunOptions run;
  std::string out;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](std::string* dst) {
      if (i + 1 >= argc) return false;
      *dst = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--workload") {
      if (!value(&args->run.workload)) return false;
    } else if (a == "--seed") {
      if (!value(&v)) return false;
      args->run.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      if (!value(&v)) return false;
      args->run.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      if (!value(&v)) return false;
      args->run.trace = v == "1";
    } else if (a == "--corrupt") {
      args->run.corrupt = true;
    } else if (a == "--out") {
      if (!value(&args->out)) return false;
    } else if (a == "--spans") {
      if (!value(&args->spans)) return false;
    } else {
      return false;
    }
  }
  return !args->run.workload.empty() && !args->out.empty() && args->run.seconds > 0;
}

/// Runs whole passes until `seconds` have been spent (at least
/// kMinPasses), appending one record per pass. The heap high-water
/// mark is reset as each pass starts, so its `heap_bytes` is the memory
/// the pass allocates above what it started with.
bullion::Status RunPhase(Workload* w, Checker* checker, double seconds,
                         std::vector<PassRecord>* passes) {
  const uint64_t start = NowNs();
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  while (passes->size() < kMinPasses || NowNs() - start < budget) {
    const int64_t heap0 = ResetHeapPeak();
    PassRecord pass;
    BULLION_RETURN_NOT_OK(w->RunPass(&pass, checker));
    pass.heap_bytes = static_cast<uint64_t>(HeapPeakBytes() - heap0);
    passes->push_back(std::move(pass));
  }
  return bullion::Status::OK();
}

void WriteU64s(std::ostringstream& o, const std::vector<uint64_t>& v) {
  o << "[";
  for (size_t i = 0; i < v.size(); ++i) o << (i ? "," : "") << v[i];
  o << "]";
}

void WritePasses(std::ostringstream& o, const std::vector<PassRecord>& passes) {
  o << "[";
  for (size_t i = 0; i < passes.size(); ++i) {
    const PassRecord& p = passes[i];
    o << (i ? ",\n" : "") << "{\"wall_ns\":" << p.wall_ns << ",\"cpu_ns\":" << p.cpu_ns
      << ",\"user_bytes\":" << p.user_bytes << ",\"ops\":" << p.ops
      << ",\"ok_ops\":" << p.ok_ops << ",\"heap_bytes\":" << p.heap_bytes << ",\"io\":{"
      << "\"read_ops\":" << p.io.read_ops << ",\"bytes_read\":" << p.io.bytes_read
      << ",\"write_ops\":" << p.io.write_ops << ",\"write_calls\":" << p.io.write_calls
      << ",\"bytes_written\":" << p.io.bytes_written
      << ",\"pages_encoded\":" << p.io.pages_encoded
      << ",\"cache_hits\":" << p.io.cache_hits << ",\"cache_misses\":" << p.io.cache_misses
      << ",\"cache_evictions\":" << p.io.cache_evictions
      << ",\"groups_pruned\":" << p.io.groups_pruned
      << ",\"shards_pruned\":" << p.io.shards_pruned << "},\"extra\":{";
    size_t k = 0;
    for (const auto& [name, value] : p.extra) {
      o << (k++ ? "," : "") << "\"" << JsonEscape(name) << "\":" << value;
    }
    o << "},\"lat_ns\":";
    WriteU64s(o, p.lat_ns);
    o << "}";
  }
  o << "]";
}

/// Per-layer counters of the traced phase: op-level counts summed over
/// its passes, then whatever the probes measured.
std::map<std::string, uint64_t> TracedCounters(const std::vector<PassRecord>& passes) {
  std::map<std::string, uint64_t> c;
  for (const char* k : {"ops", "io.preads", "io.bytes_read", "io.groups_pruned",
                        "io.shards_pruned", "dataset.cache_hits", "dataset.cache_misses",
                        "dataset.cache_evictions"}) {
    c[k] = 0;
  }
  for (const PassRecord& p : passes) {
    c["ops"] += p.ops;
    c["io.preads"] += p.io.read_ops;
    c["io.bytes_read"] += p.io.bytes_read;
    c["io.groups_pruned"] += p.io.groups_pruned;
    c["io.shards_pruned"] += p.io.shards_pruned;
    c["dataset.cache_hits"] += p.io.cache_hits;
    c["dataset.cache_misses"] += p.io.cache_misses;
    c["dataset.cache_evictions"] += p.io.cache_evictions;
    if (p.extra.count("io.write_user_bytes")) {
      c["io.write_calls"] += p.io.write_calls;
      c["format.pages_encoded"] += p.io.pages_encoded;
    }
    for (const auto& [name, value] : p.extra) c[name] += value;
  }
  return c;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
                 "--out FILE [--spans FILE] [--corrupt]\n");
    return 2;
  }
  const RunOptions& opts = args.run;
  bullion::AsyncIoService aio(bullion::AioTier::kThreads, kAioLanes);
  std::unique_ptr<Workload> workload = MakeWorkload(opts, &aio);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }

  std::vector<uint64_t> setup_ns;
  for (int i = 0; i < kSetups; ++i) {
    const uint64_t t0 = NowNs();
    bullion::Status s = workload->Setup();
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n", s.ToString().c_str());
      return 1;
    }
    setup_ns.push_back(NowNs() - t0);
  }

  Checker checker(opts.corrupt);
  std::vector<PassRecord> passes, traced;
  std::map<std::string, uint64_t> counters;
  bullion::Status s =
      RunPhase(workload.get(), &checker, opts.trace ? opts.seconds / 2 : opts.seconds, &passes);
  if (s.ok() && opts.trace) {
    Tracer::Get().set_enabled(true);
    s = RunPhase(workload.get(), &checker, opts.seconds / 2, &traced);
    counters = TracedCounters(traced);
    if (s.ok()) s = RunProbes(workload->Target(), &aio, &counters);
    Tracer::Get().set_enabled(false);
    if (s.ok() && !args.spans.empty() && !Tracer::Get().WriteTsv(args.spans)) {
      s = bullion::Status::IOError("cannot write " + args.spans);
    }
  }
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", s.ToString().c_str());
    return 1;
  }

  const Amplification amp = workload->Amp();
  std::ostringstream o;
  o.precision(17);
  o << "{\"workload\":\"" << JsonEscape(opts.workload) << "\",\"seed\":" << opts.seed
    << ",\"trace\":" << (opts.trace ? 1 : 0) << ",\n\"env\":{"
    << "\"aio_tier\":\"" << bullion::AioTierName(aio.tier()) << "\""
    << ",\"aio_lanes\":" << kAioLanes
    << ",\"default_aio_tier\":\"" << bullion::AioTierName(bullion::DefaultAioTier()) << "\""
    << ",\"simd_tier\":\"" << bullion::simd::SimdTierName(bullion::simd::ActiveSimdTier()) << "\""
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"worker_threads\":" << kWorkerThreads << ",\"client_threads\":" << kClientThreads
    << ",\"compiler\":\"" << JsonEscape(PERFBENCH_COMPILER) << "\""
    << ",\"cxx_flags\":\"" << JsonEscape(PERFBENCH_CXX_FLAGS) << "\"},\n\"sizes\":{";
  size_t k = 0;
  for (const auto& [name, value] : workload->Sizes()) {
    o << (k++ ? "," : "") << "\"" << JsonEscape(name) << "\":" << value;
  }
  o << "},\n\"setup_ns\":";
  WriteU64s(o, setup_ns);
  o << ",\n\"amp\":{\"read_bytes\":" << amp.read_bytes
    << ",\"read_user_bytes\":" << amp.read_user_bytes
    << ",\"write_bytes\":" << amp.write_bytes
    << ",\"write_user_bytes\":" << amp.write_user_bytes
    << ",\"live_file_bytes\":" << amp.live_file_bytes
    << ",\"live_user_bytes\":" << amp.live_user_bytes << "},\n\"counters\":{";
  k = 0;
  for (const auto& [name, value] : counters) {
    o << (k++ ? "," : "") << "\"" << JsonEscape(name) << "\":" << value;
  }
  o << "},\n\"passes\":";
  WritePasses(o, passes);
  o << ",\n\"traced_passes\":";
  WritePasses(o, traced);
  o << "}\n";

  FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  const std::string text = o.str();
  const bool written = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !written) return 1;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
