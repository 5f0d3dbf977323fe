#!/usr/bin/env python3
"""SHA-256 of the byte-stable outputs of a fixed list of CLI runs.

Runs, in-process and in this order:

- the ``--stable-output`` price CSV of every perfbench workload call, at
  seeds 20240 and 777, with ``--workers 1`` and ``2``;
- the ``table3``, ``varswap`` and ``appendixC`` presets at ``--paths 26001
  --workers 2``;
- ``drift`` dumps of the call-payoff kinds at K = 60 and 75 (and of the
  LDP kinds on the European weight at the same strikes) and of the
  variance-payoff drifts at K = 10, each on 16 and 252 steps.

Prints one ``sha256  label`` line per output; a label ends with the run's
exit code, and a run that wrote to stderr adds a line for that text. Run it
at two commits and ``diff`` the outputs:

    python3 scripts/stable_digests.py > digests.txt

The package is imported from ``src/`` of the checkout this script sits in.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

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
    for payoff, kind, strike in drifts:
        for steps in STEPS:
            yield (f"drift {payoff} {kind} K={strike} steps={steps}",
                   ["drift", "--payoff", payoff, "--kind", kind, "--strike", str(strike),
                    "--steps", str(steps)])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main_digests() -> None:
    # Python warnings name source lines, which move with any edit; the
    # digests cover only what the CLI itself writes.
    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        for label, argv in runs():
            out.unlink(missing_ok=True)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv + ["--out", str(out)])
            written = out.read_bytes() if out.is_file() else b""
            print(f"{sha256(written)}  {label} exit={code}", flush=True)
            if err.getvalue():
                print(f"{sha256(err.getvalue().encode())}  {label} stderr", flush=True)


if __name__ == "__main__":
    main_digests()
