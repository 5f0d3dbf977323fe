"""Benchmark of the hestonis pricing engine.

Run from the repository root:

    python3 perfbench/run.py --workload asian_fixed_drift --seed 20240 --seconds 34 --trace 0

Each workload is one or two in-process ``hestonis price`` calls (see
``workloads.py``). The run repeats them, each time with a fresh seed derived
from ``--seed``, for about ``--seconds`` seconds, checks every price CSV with
the correctness gate, prints each metric by name
with its unit, writes a result file under ``perfbench/out/`` and ends with
one JSON line. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced calls and reports the per-layer metrics, and
also writes the spans. The exit code is 0 only when every cell passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"
SETUP_PROBES = 5
CHUNK_PATHS, N_KNOTS = 25_000, 253

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, gate, parse_rows, stable_digest, time_to_accuracy  # noqa: E402


def load_cli():
    """Import ``hestonis.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "hestonis" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hestonis package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hestonis.cli

    if SRC.resolve() not in Path(hestonis.cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: hestonis was imported from {hestonis.cli.__file__}")
    return hestonis.cli


def run_workload(cli, wl, seed: int, tracer=None, paths: int | None = None,
                 workers: int | None = None) -> dict:
    """Run every price call of a workload once and gate its output."""
    OUT.mkdir(exist_ok=True)
    res = {"wall_s": 0.0, "weighted_wall_s": 0.0, "digests": [], "failures": [],
           "attempted": 0}
    for i, call in enumerate(wl.calls):
        out = OUT / f"{wl.name}-{os.getpid()}-{i}.csv"
        out.unlink(missing_ok=True)
        argv = call.argv(seed, str(out), paths=paths, workers=workers)
        span = tracer.open("workload.price", {"call": i}) if tracer else None
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # the gate reports the call's cells as missing
            traceback.print_exc()
            rc = None
        finally:
            wall = time.perf_counter() - t0
            if span:
                tracer.close(span)
        res["wall_s"] += wall
        res["weighted_wall_s"] += wall * (workers or call.workers)
        res["attempted"] += len(call.cells())
        text = out.read_text() if out.is_file() else ""
        out.unlink(missing_ok=True)
        rows = parse_rows(text) if text else []
        failures = gate(call, rows, [b for b in wl.bands if b.call == i])
        res["failures"] += [f"call {i} {f}" for f in failures]
        if rc != 0:
            print(f"perfbench: call {i} exited with {rc}", file=sys.stderr)
        res["digests"].append(stable_digest(text) if text else "")
        if i == wl.headline[0]:
            _, kind, strike = wl.headline
            head = [r for r in rows if (r["kind"], r["strike"]) == (kind, strike)]
            if head:
                res["headline_row"] = head[0]
    return res


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body for setup_s: import, build the inputs, report ready."""
    load_cli()
    for call in WORKLOADS[workload].calls:
        call.argv(seed, str(OUT / "probe.csv"))
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to ready, in SETUP_PROBES fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise SystemExit("perfbench: setup probe failed")
        times.append(ready)
    return times


def run_context(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    l3 = None
    try:
        size = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
        l3 = int(size[:-1]) * 1024 if size.endswith("K") else int(size)
    except (OSError, ValueError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "hestonis").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l3_bytes": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
        "chunk_matrix_mb_computed": CHUNK_PATHS * N_KNOTS * 8 / 1e6,
    }


def _git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def rep_seed(seed: int, rep: int) -> int:
    """Seed of repetition ``rep``: the run's seed first, then derived ones, so
    each repetition draws fresh paths and the medians pool their variance."""
    if rep == 0:
        return seed
    return int(hashlib.sha256(f"{seed}/{rep}".encode()).hexdigest()[:8], 16)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    cli = load_cli()
    from tracer import Tracer, layer_metrics

    wl = WORKLOADS[args.workload]
    setup = measure_setup(wl.name, args.seed)
    context = run_context(args.seed)

    runs, traced, layers, spans, failures = [], [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        seed = rep_seed(args.seed, len(runs))
        runs.append(run_workload(cli, wl, seed))
        runs[-1]["seed"] = seed
        if args.trace:
            tracer = Tracer().install()
            try:
                traced.append(run_workload(cli, wl, seed, tracer=tracer))
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer, wl.headline_key(),
                                        traced[-1]["weighted_wall_s"]))
            spans += [dict(rec, call=len(traced) - 1) for rec in tracer.span_records()]
            if traced[-1]["digests"] != runs[-1]["digests"]:
                failures.append(f"seed {seed}: traced and untraced CSVs differ")
        lap = time.perf_counter() - t0
        if time.perf_counter() - start + lap > args.seconds:
            break

    everything = runs + traced
    failures += [f for r in everything for f in r["failures"]]
    attempted = sum(r["attempted"] for r in everything)
    heads = [r["headline_row"] for r in runs if "headline_row" in r]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (_median(runs, "wall_s"), "s"),
        "tta_s": (time_to_accuracy(heads) if heads else math.nan, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "cell_fail_frac": (len(failures) / attempted, "fraction"),
    }
    if args.trace:
        for name in layers[0]:
            values = [m[name][0] for m in layers]
            metrics[name] = (statistics.median(values), layers[0][name][1])
        untraced = _median(runs, "wall_s")
        metrics["trace.overhead_frac"] = (
            (_median(traced, "wall_s") - untraced) / untraced, "fraction")
        reported = [n for n in metrics if n not in ("setup_s", "wall_s", "tta_s", "peak_rss_mb")]
    else:
        reported = ["setup_s", "wall_s", "tta_s", "peak_rss_mb"]

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": wl.name,
        "trace": args.trace,
        "context": context,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "samples": {"setup_s": setup, "wall_s": [r["wall_s"] for r in runs],
                    "tta_s": [time_to_accuracy([h]) for h in heads],
                    "traced_wall_s": [r["wall_s"] for r in traced]},
        "stable_csv_sha256": {r["seed"]: r["digests"] for r in runs},
        "headline": wl.headline_key(),
        "headline_rows": heads,
        "failures": failures,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for rec in spans:
                fh.write(json.dumps(rec) + "\n")

    for f in failures:
        print(f"FAIL {f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in reported},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
