"""Turns perfbench's raw measurements into the reported metrics.

Pure functions over the JSON the perfbench binary writes (and the span
file of a traced run), so every percentile choice, ratio base and the
output shape are unit-tested (test_metrics.py) apart from any run.
"""

import math
import statistics
from fractions import Fraction

# Percentiles op_tail_ms may report, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
# A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10
# Counts that must repeat exactly across the passes of one run. Cache
# evictions are left out: with several scan workers the LRU sees inserts
# in scheduling order.
PASS_COUNT_KEYS = ("ops", "user_bytes")
PASS_IO_KEYS = ("read_ops", "bytes_read", "write_calls", "bytes_written",
                "pages_encoded", "cache_hits", "cache_misses",
                "groups_pruned", "shards_pruned")


def ratio(num, den):
    """num / den, or 0.0 when the base is empty."""
    return num / den if den else 0.0


def rank(pct, n):
    """1-based nearest rank of the pct-th percentile of n samples, in
    exact arithmetic (99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def nearest_rank(sorted_values, pct):
    """The pct-th percentile by nearest rank, and how many samples lie
    beyond it."""
    n = len(sorted_values)
    if n == 0:
        return 0.0, 0
    r = rank(pct, n)
    return sorted_values[r - 1], n - r


def tail_percentile(n):
    """Highest ladder percentile leaving at least MIN_BEYOND of n samples
    beyond it, or None when even the median does not."""
    best = None
    for pct in TAIL_LADDER:
        if n - rank(pct, n) >= MIN_BEYOND:
            best = pct
    return best


def op_tail(passes):
    """op_tail_ms: in each pass, the highest ladder percentile leaving at
    least MIN_BEYOND of the pass's op latencies beyond it; the median of
    that over the passes, so one disturbed pass cannot move it. Every
    pass runs the same ops, so every pass picks the same percentile.
    Returns (value_ms, pct, samples_per_pass, beyond_per_pass)."""
    if not passes:
        return 0.0, TAIL_LADDER[0], 0, 0
    n = len(passes[0]["lat_ns"])
    pct = tail_percentile(n) or TAIL_LADDER[0]
    tails = [nearest_rank(sorted(p["lat_ns"]), pct)[0] for p in passes]
    return median(tails) / 1e6, pct, n, n - rank(pct, n) if n else 0


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(raw):
    """Every end-to-end metric of the untraced passes, as
    {name: (value, unit)}, plus the bases they were computed from."""
    passes = raw["passes"]
    lat = [x for p in passes for x in p["lat_ns"]]
    ops_per_pass = passes[0]["ops"] if passes else 0
    tail_ms, tail_pct, samples, beyond = op_tail(passes)
    amp = raw["amp"]
    attempted = sum(p["ops"] for p in passes)
    ok = sum(p["ok_ops"] for p in passes)
    metrics = {
        "setup_s": (median(raw["setup_ns"]) / 1e9, "s"),
        "throughput_mb_s": (median([ratio(p["user_bytes"] / 1e6, p["wall_ns"] / 1e9)
                                    for p in passes]), "MB/s"),
        "mb_per_cpu_s": (median([ratio(p["user_bytes"] / 1e6, p["cpu_ns"] / 1e9)
                                 for p in passes]), "MB/cpu-s"),
        "ops_s": (median([ratio(p["ops"], p["wall_ns"] / 1e9) for p in passes]), "1/s"),
        "op_p50_ms": (median(lat) / 1e6, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "op_ok_ratio": (ratio(ok, attempted), "ratio"),
        "peak_heap_mb": (median([p["heap_bytes"] for p in passes]) / 1e6, "MB"),
        "read_amp": (ratio(amp["read_bytes"], amp["read_user_bytes"]), "B/B"),
        "write_amp": (ratio(amp["write_bytes"], amp["write_user_bytes"]), "B/B"),
        "space_amp": (ratio(amp["live_file_bytes"], amp["live_user_bytes"]), "B/B"),
    }
    bases = {
        "op_tail": "p%g of the %d op latencies of each pass (%d beyond), median over %d passes"
                   % (tail_pct, samples, beyond, len(passes)),
        "op_ok_ratio": "%d verified / %d attempted ops" % (ok, attempted),
        "read_amp": "%d bytes pread / %d user bytes returned"
                    % (amp["read_bytes"], amp["read_user_bytes"]),
        "write_amp": "%d bytes written / %d user bytes written or erased"
                     % (amp["write_bytes"], amp["write_user_bytes"]),
        "space_amp": "%d live file bytes / %d live user bytes"
                     % (amp["live_file_bytes"], amp["live_user_bytes"]),
        "peak_heap_mb": "median of %d per-pass heap peaks above the pass's start "
                        "(%d..%d bytes)" % (len(passes), min(p["heap_bytes"] for p in passes),
                                            max(p["heap_bytes"] for p in passes)),
        "passes": "%d passes of %d ops" % (len(passes), ops_per_pass),
    }
    return metrics, bases


def counts_repeat(passes):
    """True when every pass made exactly the same counts."""
    def sig(p):
        return (tuple(p[k] for k in PASS_COUNT_KEYS) +
                tuple(p["io"][k] for k in PASS_IO_KEYS) +
                tuple(sorted(p["extra"].items())))
    return len({sig(p) for p in passes}) <= 1


# ------------------------------------------------------------- spans

def parse_spans(lines):
    """Span records from perfbench's TSV: index, parent, op, thread,
    name, start_ns, end_ns, bytes."""
    spans = []
    for line in lines:
        f = line.rstrip("\n").split("\t")
        if len(f) != 8:
            continue
        spans.append({"index": int(f[0]), "parent": int(f[1]), "op": int(f[2]),
                      "thread": int(f[3]), "name": f[4], "start": int(f[5]),
                      "end": int(f[6]), "bytes": int(f[7])})
    return spans


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0) + s["end"] - s["start"]
    return {s["index"]: s["end"] - s["start"] - child.get(s["index"], 0) for s in spans}


def op_self_by_layer(spans):
    """Self time of the spans inside workload ops, summed per layer (the
    span name's first component), in ns."""
    own = self_times(spans)
    layers = {}
    for s in spans:
        if s["op"] != 0:
            layer = s["name"].split(".")[0]
            layers[layer] = layers.get(layer, 0) + own[s["index"]]
    return layers


def _durations(spans, prefix):
    return sorted(s["end"] - s["start"] for s in spans
                  if s["name"] == prefix or s["name"].startswith(prefix + "."))


def _pct_us(spans, prefix, pct):
    return nearest_rank(_durations(spans, prefix), pct)[0] / 1e3


def _mb_s(spans, prefix):
    sel = [s for s in spans if s["name"] == prefix or s["name"].startswith(prefix + ".")]
    return ratio(sum(s["bytes"] for s in sel) / 1e6,
                 sum(s["end"] - s["start"] for s in sel) / 1e9)


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("encoding.select_encode_mb_s", "MB/s", "higher"),
    ("encoding.encode_only_mb_s", "MB/s", "higher"),
    ("encoding.select_share", "ratio", "lower"),
    ("encoding.decode_mb_s", "MB/s", "higher"),
    ("encoding.compression_ratio", "ratio", "higher"),
    ("format.stage_p50_us", "us", "lower"),
    ("format.commit_p50_us", "us", "lower"),
    ("format.encode_page_p50_us", "us", "lower"),
    ("format.encode_page_p99_us", "us", "lower"),
    ("format.pages_encoded_per_op", "count/op", "lower"),
    ("format.open_p50_us", "us", "lower"),
    ("format.plan_p50_us", "us", "lower"),
    ("format.decode_p50_us", "us", "lower"),
    ("format.decode_mb_s", "MB/s", "higher"),
    ("format.page_run_decode_p50_us", "us", "lower"),
    ("format.delete_p50_us", "us", "lower"),
    ("format.delete_bytes_written_per_row", "B/row", "lower"),
    ("format.delete_pages_rewritten_per_op", "count/op", "lower"),
    ("io.fetch_p50_us", "us", "lower"),
    ("io.fetch_p99_us", "us", "lower"),
    ("io.preads_per_op", "count/op", "lower"),
    ("io.bytes_read_per_op", "B/op", "lower"),
    ("io.groups_pruned_per_op", "count/op", "higher"),
    ("io.shards_pruned_per_op", "count/op", "higher"),
    ("io.write_calls_per_mb", "1/MB", "lower"),
    ("exec.next_wait_p50_us", "us", "lower"),
    ("exec.next_wait_p99_us", "us", "lower"),
    ("exec.stream_open_p50_us", "us", "lower"),
    ("exec.append_p50_us", "us", "lower"),
    ("exec.append_p99_us", "us", "lower"),
    ("dataset.open_ms", "ms", "lower"),
    ("dataset.finish_ms", "ms", "lower"),
    ("dataset.cache_hit_ratio", "ratio", "higher"),
    ("dataset.cache_evictions_per_op", "count/op", "lower"),
    ("dataset.compact_ms", "ms", "lower"),
    ("dataset.compact_rewritten_mb", "MB", "lower"),
    ("dataset.compact_reclaimed_ratio", "ratio", "higher"),
    ("serve.hit_p50_us", "us", "lower"),
    ("serve.miss_p50_us", "us", "lower"),
    ("serve.miss_preads_per_op", "count/op", "lower"),
    ("trace.overhead_ops_s_pct", "%", "lower"),
    ("trace.overhead_op_p50_pct", "%", "lower"),
)


def per_layer(raw, spans):
    """Every per-layer metric of a traced run, as {name: (value, unit)}."""
    c = raw["counters"]
    ops = c.get("ops", 0)
    enc_only = sum(_durations(spans, "encoding.encode_only"))
    enc_sel = sum(_durations(spans, "encoding.select_encode.int64"))
    hits, misses = c.get("dataset.cache_hits", 0), c.get("dataset.cache_misses", 0)
    before, after = c.get("dataset.compact_bytes_before", 0), c.get("dataset.compact_bytes_after", 0)
    untraced, _ = end_to_end(raw)
    traced, _ = end_to_end(dict(raw, passes=raw["traced_passes"]))
    values = {
        "encoding.select_encode_mb_s": _mb_s(spans, "encoding.select_encode"),
        "encoding.encode_only_mb_s": _mb_s(spans, "encoding.encode_only"),
        "encoding.select_share": 1.0 - ratio(enc_only, enc_sel) if enc_sel else 0.0,
        "encoding.decode_mb_s": _mb_s(spans, "encoding.decode"),
        "encoding.compression_ratio": ratio(c.get("encoding.user_bytes", 0),
                                            c.get("encoding.encoded_bytes", 0)),
        "format.stage_p50_us": _pct_us(spans, "format.stage", 50),
        "format.commit_p50_us": _pct_us(spans, "format.commit", 50),
        "format.encode_page_p50_us": _pct_us(spans, "format.encode_page", 50),
        "format.encode_page_p99_us": _pct_us(spans, "format.encode_page", 99),
        "format.pages_encoded_per_op": ratio(c.get("format.pages_encoded", 0),
                                             len(_durations(spans, "exec.append"))),
        "format.open_p50_us": _pct_us(spans, "format.open", 50),
        "format.plan_p50_us": _pct_us(spans, "format.plan", 50),
        "format.decode_p50_us": _pct_us(spans, "format.decode", 50),
        "format.decode_mb_s": _mb_s(spans, "format.decode"),
        "format.page_run_decode_p50_us": _pct_us(spans, "format.page_run_decode", 50),
        "format.delete_p50_us": _pct_us(spans, "format.delete", 50),
        "format.delete_bytes_written_per_row": ratio(c.get("format.delete_bytes_written", 0),
                                                     c.get("format.delete_rows", 0)),
        "format.delete_pages_rewritten_per_op": ratio(c.get("format.delete_pages_rewritten", 0),
                                                      c.get("format.delete_calls", 0)),
        "io.fetch_p50_us": _pct_us(spans, "io.fetch", 50),
        "io.fetch_p99_us": _pct_us(spans, "io.fetch", 99),
        "io.preads_per_op": ratio(c.get("io.preads", 0), ops),
        "io.bytes_read_per_op": ratio(c.get("io.bytes_read", 0), ops),
        "io.groups_pruned_per_op": ratio(c.get("io.groups_pruned", 0), ops),
        "io.shards_pruned_per_op": ratio(c.get("io.shards_pruned", 0), ops),
        "io.write_calls_per_mb": ratio(c.get("io.write_calls", 0),
                                       c.get("io.write_user_bytes", 0) / 1e6),
        "exec.next_wait_p50_us": _pct_us(spans, "exec.next", 50),
        "exec.next_wait_p99_us": _pct_us(spans, "exec.next", 99),
        "exec.stream_open_p50_us": _pct_us(spans, "exec.stream_open", 50),
        "exec.append_p50_us": _pct_us(spans, "exec.append", 50),
        "exec.append_p99_us": _pct_us(spans, "exec.append", 99),
        "dataset.open_ms": _pct_us(spans, "dataset.open", 50) / 1e3,
        "dataset.finish_ms": _pct_us(spans, "dataset.finish", 50) / 1e3,
        "dataset.cache_hit_ratio": ratio(hits, hits + misses),
        "dataset.cache_evictions_per_op": ratio(c.get("dataset.cache_evictions", 0), ops),
        "dataset.compact_ms": _pct_us(spans, "dataset.compact", 50) / 1e3,
        "dataset.compact_rewritten_mb": ratio(after / 1e6, c.get("dataset.compact_calls", 0)),
        "dataset.compact_reclaimed_ratio": 1.0 - ratio(after, before) if before else 0.0,
        "serve.hit_p50_us": _pct_us(spans, "serve.lookup.hit", 50),
        "serve.miss_p50_us": _pct_us(spans, "serve.lookup.miss", 50),
        "serve.miss_preads_per_op": ratio(c.get("serve.miss_preads", 0), c.get("serve.misses", 0)),
        "trace.overhead_ops_s_pct": 100.0 * (1.0 - ratio(traced["ops_s"][0], untraced["ops_s"][0])),
        "trace.overhead_op_p50_pct": 100.0 * (ratio(traced["op_p50_ms"][0],
                                                    untraced["op_p50_ms"][0]) - 1.0),
    }
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}


def result(metrics, attempted, failed):
    """The benchmark's last output line, as a dict with exactly the keys
    correct, attempted, failed and metrics."""
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }
