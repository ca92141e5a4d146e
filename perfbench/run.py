#!/usr/bin/env python3
"""The repository benchmark: builds Bullion and the perfbench binary from
source, runs one seeded workload, checks every result, and prints the
metrics as the last line of standard output (see perfbench/README.md).

    python3 perfbench/run.py --workload train_scan --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs half the time
untraced and half traced, adds the layer probes, and prints the
per-layer metrics (tracing overhead included). --corrupt is the negative
control: one expected answer is corrupted, so op_ok_ratio drops below 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import metrics  # noqa: E402

WORKLOADS = ("ingest", "train_scan", "serve_lookup", "compliance")
# Each changes the program being measured.
FORBIDDEN_ENV = ("BULLION_TRACE", "BULLION_AIO", "BULLION_SIMD", "BULLION_ODIRECT")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def local_env():
    """The environment for every child process, with temporary files
    (the compiler's included) kept inside the build root."""
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(build_dir):
    """Configures once, then builds incrementally; returns the binary."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      env=local_env(), timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="negative control: corrupt one expected answer")
    args = p.parse_args()

    for var in FORBIDDEN_ENV:
        if var in os.environ:
            fail("refusing to run with %s set: it changes the program being measured" % var, 3)
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no Bullion sources next to %s: run from a full checkout" % HERE, 2)

    binary = build(os.path.join(build_root(), "perfbench"))
    work = os.path.join(build_root(), "perfbench-work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    raw_path = os.path.join(work, "raw.json")
    spans_path = os.path.join(work, "spans.tsv")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", raw_path]
    if args.trace:
        cmd += ["--spans", spans_path]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        started = time.monotonic()
        try:
            code = subprocess.run(cmd, env=local_env(), timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            fail("run exceeded %d s" % RUN_TIMEOUT_S)
        if code != 0:
            fail("perfbench exited with %d" % code)
        with open(raw_path) as f:
            raw = json.load(f)
        spans = []
        if args.trace:
            with open(spans_path) as f:
                spans = metrics.parse_spans(f)
        elapsed = time.monotonic() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e, bases = metrics.end_to_end(raw)
    env = raw["env"]
    print("perfbench: workload=%s seed=%d trace=%d wall=%.1fs" %
          (args.workload, args.seed, args.trace, elapsed))
    print("perfbench: env aio=%s (%d lane) default_aio=%s simd=%s nproc=%d workers=%d "
          "clients=%d compiler=%s flags=[%s]" %
          (env["aio_tier"], env["aio_lanes"], env["default_aio_tier"], env["simd_tier"],
           env["nproc"], env["worker_threads"], env["client_threads"], env["compiler"],
           env["cxx_flags"]))
    print("perfbench: sizes " + " ".join("%s=%g" % kv for kv in sorted(raw["sizes"].items())))
    for name in sorted(bases):
        print("perfbench: %s: %s" % (name, bases[name]))
    print("perfbench: counts repeat exactly across passes: %s" %
          ("yes" if metrics.counts_repeat(raw["passes"] + raw["traced_passes"]) else "NO"))

    all_passes = raw["passes"] + raw["traced_passes"]
    attempted = sum(p["ops"] for p in all_passes)
    failed = attempted - sum(p["ok_ops"] for p in all_passes)
    if args.trace:
        layer = metrics.per_layer(raw, spans)
        ops = raw["counters"].get("ops", 0)
        self_ns = metrics.op_self_by_layer(spans)
        print("perfbench: op self time by layer (us/op, %d traced ops): %s" %
              (ops, " ".join("%s=%.1f" % (k, metrics.ratio(v / 1e3, ops))
                             for k, v in sorted(self_ns.items()))))
        print("perfbench: tracing overhead: ops_s %+.2f%%, op_p50_ms %+.2f%% "
              "(traced half vs untraced half of this run)" %
              (-layer["trace.overhead_ops_s_pct"][0], layer["trace.overhead_op_p50_pct"][0]))
        print("perfbench: layers reached: every per-layer metric is measured on this "
              "workload (ops, or layer probes for the rest)")
        if raw["counters"].get("probe.failures", 0):
            failed += raw["counters"]["probe.failures"]
            print("perfbench: %d layer probes returned wrong results" %
                  raw["counters"]["probe.failures"])
        out = metrics.result(layer, attempted, failed)
    else:
        out = metrics.result(e2e, attempted, failed)
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
