"""Benchmark for georocket: one workload, measured end to end over HTTP.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The server under test is the checkout's own ``src/``, started as a
subprocess. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the workload runs
twice with the same seed, untraced and then under ``traced_server.py``, and
the last line holds the per-layer metrics instead. The line before it is a
report with every metric, the input sizes and the environment. The exit code
is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
TMP_ROOT = CHECKOUT / ".bench_tmp"

# (name, unit): the metrics a user of the server sees, reported by every workload
END_TO_END = [
    ("setup_s", "s"),
    ("import_ack_mbps", "MB/s"),
    ("import_finished_mbps", "MB/s"),
    ("export_full_mbps", "MB/s"),
    ("search_p50_ms", "ms"),
    ("search_tail_ms", "ms"),
    ("search_qps", "1/s"),
    ("update_p50_ms", "ms"),
    ("restart_s", "s"),
    ("server_peak_rss_mb", "MiB"),
]


def cpu_times() -> list[int]:
    """The machine's cumulative CPU time counters from /proc/stat."""
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:]]


def environment(data_dir: Path, info: dict, cpu_before: list[int]) -> dict:
    from harness import filesystem_type

    commit = None
    if (CHECKOUT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    spent = [b - a for a, b in zip(cpu_before, cpu_times())]
    steal = spent[7] if len(spent) > 7 else 0
    digest = hashlib.sha256()
    for path in sorted((CHECKOUT / "src").rglob("*.py")):
        digest.update(path.relative_to(CHECKOUT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "fsync": info["fsync"],
        "store": info["store"],
        "index": info["index"],
        "data_dir_fs": filesystem_type(data_dir),
        # time the hypervisor gave this machine's CPUs to others during the run
        "cpu_steal_share": steal / max(sum(spent), 1),
    }


def run_workload(name: str, ctx):
    import workloads

    try:
        return workloads.WORKLOADS[name](ctx)
    finally:
        ctx.stop_servers()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["geojson-fs-ingest", "citygml-roundtrip", "geojson-index-ingest",
                                 "mixed-search-write"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every input size (the smoke test uses a tiny one)")
    args = parser.parse_args(argv)

    if not (CHECKOUT / "src" / "georocket" / "__init__.py").is_file():
        print(f"bench: no georocket sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(CHECKOUT / "src"))
    from layers import PER_LAYER, Trace, summarize
    from workloads import Context

    # a terminated run still stops its servers and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    cpu_before = cpu_times()
    try:
        # a traced run measures twice, so each pass gets half the time
        seconds = args.seconds / 2 if args.trace else args.seconds
        ctx = Context(CHECKOUT, tmp / "untraced", args.seed, seconds, args.scale)
        result = run_workload(args.workload, ctx)
        passes = [result]
        env = environment(ctx.tmp, result.info, cpu_before)
        layer_metrics = None
        if args.trace:
            spans = tmp / "spans"
            spans.mkdir()
            traced_ctx = Context(CHECKOUT, tmp / "traced", args.seed, seconds, args.scale, spans)
            traced = run_workload(args.workload, traced_ctx)
            passes.append(traced)
            facts = dict(traced.trace, disk_bytes_per_input_byte=traced.metrics["disk_bytes_per_input_byte"])
            measured, restarted = (Trace(spans / f"{name}.json") for name in facts["servers"])
            layer_metrics = summarize(measured, restarted, facts)
            headline = traced.trace["headline"]
            share = traced.metrics[headline] / result.metrics[headline]
            layer_metrics["trace.overhead_share"] = 1 / share if headline.endswith("mbps") else share
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(p.checks.attempted for p in passes)
    failed = sum(p.checks.failed for p in passes)
    m = result.metrics
    end_to_end = {name: {"value": m[name], "unit": unit} for name, unit in END_TO_END}
    # error_rate (0 when all is well) and disk_bytes_per_input_byte (0 for the
    # memory store) go to the report only: a gated metric must never read 0
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "environment": env, "input": result.info,
        "end_to_end": dict(end_to_end, error_rate={"value": failed / max(attempted, 1), "unit": "ratio"},
                           disk_bytes_per_input_byte={"value": m["disk_bytes_per_input_byte"],
                                                      "unit": "ratio"}),
        "search_tail": {"percentile": m["search_tail_percentile"], "samples": m["search_samples"],
                        "update_samples": m["update_samples"]},
        "failures": [note for p in passes for note in p.checks.notes],
    }
    if layer_metrics is not None:
        report["per_layer"] = {name: {"value": layer_metrics[name], "unit": unit}
                               for name, unit, _ in PER_LAYER}
    for name, entry in {**report["end_to_end"], **report.get("per_layer", {})}.items():
        print(f"{name:34s} {entry['value']:14.4f} {entry['unit']}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["per_layer"] if args.trace else end_to_end,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
