#!/usr/bin/env python3
"""SHA-256 of the byte-stable outputs of a fixed list of CLI runs.

Runs, in-process and in this order:

- the ``--stable-output`` price CSV of every perfbench workload call, at
  seeds 20240 and 777, with ``--workers 1`` and ``2``;
- the ``table3``, ``varswap`` and ``appendixC`` presets at ``--paths 26001
  --workers 2``;
- ``drift`` dumps of the call-payoff kinds at K = 60 and 75 (and of the
  LDP kinds on the European weight, and of BS under constant volatility,
  at the same strikes) and of the variance-payoff drifts at K = 10, each on
  16 and 252 steps;
- one ``drift`` dump that must be refused: LDPsn under constant volatility,
  which that table does not offer, on 16 steps.

Prints a header of ``# numpy``, ``# scipy`` and ``# cpu`` lines, then one
``sha256  label`` line per output; a label ends with the run's exit code, and
a run that wrote to stderr adds a line for that text. The committed ledger
``scripts/digests.txt`` is this output:

    python3 scripts/stable_digests.py > scripts/digests.txt

``--check FILE`` reruns every run and compares it with the ledger ``FILE``.
It exits 0 when every label's lines match, and 1 after naming each label
that moved. When the ledger's numpy or scipy version differs from the
installed one it exits 2 with a versions message instead, since digests are
only comparable on the same versions:

    python3 scripts/stable_digests.py --check scripts/digests.txt

``--keep DIR`` also saves each run's output as ``DIR/<label>.csv``. Where two
commits' digests differ, ``--max-rel DIR_A DIR_B`` reads two such directories
and prints, per label, the largest relative move of any numeric CSV cell and
the column it sits in:

    python3 scripts/stable_digests.py --keep out_a > digests_a.txt
    python3 scripts/stable_digests.py --max-rel out_a out_b

The package is imported from ``src/`` of the checkout this script sits in.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import math
import platform
import re
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy  # noqa: E402
import scipy  # noqa: E402

from hestonis.cli import main  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (20240, 777)
PRESETS = ("table3", "varswap", "appendixC")
CALL_DRIFTS = ("BS", "MDPsn", "MDPsn_A", "MDPst_A", "MDPsnLog", "MDPlt", "LDPsn", "LDPst_A",
               "BS_A", "MDPsnLog_A", "LDPsn_A")
EUROPEAN_DRIFTS = ("LDPsn", "LDPst_A")
VARIANCE_DRIFTS = ("LDPsn", "MDPsn", "LDPsn_A", "MDPsn_A", "BS", "BS_A")
STEPS = (16, 252)


def runs():
    """(label, argv without --out) of every run, in order."""
    for name, wl in WORKLOADS.items():
        for i, call in enumerate(wl.calls):
            for seed in SEEDS:
                for workers in (1, 2):
                    argv = call.argv(seed, "", workers=workers)[:-2] + ["--stable-output"]
                    yield f"price {name}[{i}] seed={seed} workers={workers}", argv
    for preset in PRESETS:
        yield f"price --preset {preset}", ["price", "--preset", preset, "--paths", "26001",
                                            "--workers", "2", "--stable-output"]
    drifts = [("geometric_asian_call", kind, strike) for kind in CALL_DRIFTS
              for strike in (60, 75)]
    drifts += [("european_call", kind, strike) for kind in EUROPEAN_DRIFTS
               for strike in (60, 75)]
    drifts += [("vol_indicator_swap", kind, 10) for kind in VARIANCE_DRIFTS]
    drifts += [("arithmetic_asian_call", "BS", strike) for strike in (60, 75)]
    dumps = [(payoff, kind, strike, steps) for payoff, kind, strike in drifts for steps in STEPS]
    dumps.append(("arithmetic_asian_call", "LDPsn", 60, 16))  # exits 1
    for payoff, kind, strike, steps in dumps:
        yield (f"drift {payoff} {kind} K={strike} steps={steps}",
               ["drift", "--payoff", payoff, "--kind", kind, "--strike", str(strike),
                "--steps", str(steps)])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_name(label: str) -> str:
    """``label`` as a file name: each run of other characters becomes "_"."""
    return re.sub(r"[^A-Za-z0-9.=-]+", "_", label) + ".csv"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((ln.split(":", 1)[1].strip() for ln in fh
                         if ln.startswith("model name")), platform.processor())
    except OSError:
        return platform.processor()


def installed_versions() -> dict[str, str]:
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def header() -> list[str]:
    """The ledger's header: the library versions and the CPU model."""
    fields = {**installed_versions(), "cpu": cpu_model()}
    return [f"# {key} {value}" for key, value in fields.items()]


def read_ledger(path: Path) -> tuple[dict[str, str], dict[str, list[str]]]:
    """(header fields, digest lines by run label) of a ledger file."""
    head, lines = {}, {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" ")
            head[key] = value
        elif line:
            # "<sha256>  <label> exit=<code>" or "<sha256>  <label> stderr"
            label = line.split("  ", 1)[1].rsplit(" ", 1)[0]
            lines.setdefault(label, []).append(line)
    return head, lines


def versions_message(head: dict[str, str]) -> str | None:
    """Why a ledger with header ``head`` cannot be checked here, or None."""
    installed = installed_versions()
    if all(head.get(key) == value for key, value in installed.items()):
        return None
    made = ", ".join(f"{key} {head.get(key, '?')}" for key in installed)
    have = ", ".join(f"{key} {value}" for key, value in installed.items())
    return (f"versions differ: the ledger was made with {made}, this box has {have}; "
            "remake the ledger here before comparing digests")


def digests(selected, keep: Path | None = None):
    """(label, digest lines) of each run of ``selected``, in order."""
    if keep is not None:
        keep.mkdir(parents=True, exist_ok=True)
    # Python warnings name source lines, which move with any edit; the
    # digests cover only what the CLI itself writes.
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = Path(tmp) / "out.csv"
        for label, argv in selected:
            out.unlink(missing_ok=True)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv + ["--out", str(out)])
            written = out.read_bytes() if out.is_file() else b""
            if keep is not None:
                (keep / file_name(label)).write_bytes(written)
            lines = [f"{sha256(written)}  {label} exit={code}"]
            if err.getvalue():
                lines.append(f"{sha256(err.getvalue().encode())}  {label} stderr")
            yield label, lines


def main_digests(keep: Path | None = None) -> None:
    print("\n".join(header()), flush=True)
    for _, lines in digests(runs(), keep):
        print("\n".join(lines), flush=True)


def check(ledger: Path) -> int:
    """Rerun every run against ``ledger``: 0 when all match, 1 after naming
    each moved label, 2 when the ledger's versions are not the installed ones."""
    head, want = read_ledger(ledger)
    message = versions_message(head)
    if message:
        print(message, file=sys.stderr)
        return 2
    if head.get("cpu") != cpu_model():
        print(f"note: the ledger was made on {head.get('cpu')!r}, this is {cpu_model()!r}",
              file=sys.stderr)
    moved = [label for label, lines in digests(runs()) if want.pop(label, None) != lines]
    moved += [f"{label} (in the ledger, not run)" for label in want]
    for label in moved:
        print(f"moved: {label}")
    print(f"{len(moved)} label(s) moved against {ledger}")
    return 1 if moved else 0


def relative_move(a: str, b: str) -> float | None:
    """|a - b| / max(|a|, |b|) of two numeric cells (0 where they are equal,
    NaN ones included); None when either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def max_moves(dir_a: Path, dir_b: Path) -> None:
    """Print, per label, the largest relative move of a numeric cell between
    the outputs kept in ``dir_a`` and ``dir_b``, with its column; a label
    whose tables differ in shape or in a text cell says so."""
    for label, _ in runs():
        name = file_name(label)
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()):
            print(f"{'missing':>10}  {label}")
            continue
        rows_a = list(csv.reader(a.read_text().splitlines()))
        rows_b = list(csv.reader(b.read_text().splitlines()))
        if [len(r) for r in rows_a] != [len(r) for r in rows_b] or rows_a[:1] != rows_b[:1]:
            print(f"{'shape':>10}  {label}")
            continue
        worst, where, text = 0.0, "", False
        for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
            for column, x, y in zip(rows_a[0], row_a, row_b):
                move = relative_move(x, y)
                if move is None:
                    text |= x != y
                elif move > worst:
                    worst, where = move, column
        note = " (a text cell differs)" if text else ""
        print(f"{worst:>10.2e}  {label}{' ' + where if where else ''}{note}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="also save each run's output in DIR")
    parser.add_argument("--max-rel", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare two --keep directories instead of running")
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="rerun every run and compare it with the ledger FILE")
    args = parser.parse_args()
    if args.max_rel:
        max_moves(*args.max_rel)
    elif args.check:
        sys.exit(check(args.check))
    else:
        main_digests(args.keep)
