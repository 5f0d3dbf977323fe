"""Workload definitions and the correctness gate applied to their price CSVs.

A workload is a list of ``hestonis price`` invocations (one, or two for
``payoff_mix``) plus the headline cell that time-to-accuracy is read from.
Paper parameters throughout: S0=50, v0=0.04, kappa=2, theta=0.09, xi=0.2,
rho=-0.5, T=1, 252 steps (the CLI defaults).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import statistics
from dataclasses import dataclass

#: Relative standard error the time-to-accuracy metric targets.
TTA_REL_ERR = 1e-3
#: Non-Classic prices must lie within this many combined standard errors of
#: the Classic price at the same strike.
MAX_GAP_SE = 4.0
TIMING_COLUMNS = ("wall_time_s", "drift_time_s")


@dataclass(frozen=True)
class PriceCall:
    """One ``hestonis price`` invocation."""

    payoff: str
    strikes: tuple[float, ...]
    kinds: tuple[str, ...]
    paths: int
    workers: int

    def argv(self, seed: int, out: str, paths: int | None = None,
             workers: int | None = None) -> list[str]:
        return [
            "price",
            "--payoff", self.payoff,
            "--strikes", ",".join(f"{k:g}" for k in self.strikes),
            "--kinds", ",".join(self.kinds),
            "--paths", str(paths or self.paths),
            "--workers", str(workers or self.workers),
            "--seed", str(seed),
            "--out", out,
        ]

    def cells(self) -> list[tuple[str, float]]:
        return [(kind, k) for k in self.strikes for kind in self.kinds]


@dataclass(frozen=True)
class Band:
    """Acceptance band on one cell's var_reduction.

    ``lo``/``hi`` bound the ratio; ``above_others`` requires it to exceed
    every other kind's ratio at the same strike.
    """

    call: int
    kind: str
    strike: float
    lo: float = -math.inf
    hi: float = math.inf
    above_others: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[PriceCall, ...]
    headline: tuple[int, str, float]  # (call index, kind, strike)
    bands: tuple[Band, ...]

    def headline_key(self) -> str:
        call, kind, strike = self.headline
        return f"{self.calls[call].payoff}:{kind}@{strike:g}"


WORKLOADS = {
    "asian_fixed_drift": Workload(
        name="asian_fixed_drift",
        calls=(PriceCall(
            payoff="geometric_asian_call", strikes=(50.0, 70.0),
            kinds=("Classic", "Antithetic", "BS", "BS_A", "LDPsn", "LDPsn_A",
                   "MDPsnLog_A", "MDPsn_A", "MDPlt"),
            paths=100_000, workers=2),),
        headline=(0, "LDPsn", 70.0),
        bands=(Band(0, "LDPsn", 70.0, lo=70.0),),
    ),
    "asian_itm_bs_a2": Workload(
        name="asian_itm_bs_a2",
        calls=(PriceCall(
            payoff="geometric_asian_call", strikes=(30.0,),
            kinds=("Classic", "BS_A", "BS_A2"), paths=100_000, workers=2),),
        headline=(0, "BS_A2", 30.0),
        bands=(Band(0, "BS_A2", 30.0, above_others=True),),
    ),
    "payoff_mix": Workload(
        name="payoff_mix",
        calls=(
            PriceCall(
                payoff="vol_indicator_swap", strikes=(10.0, 50.0),
                kinds=("Classic", "Antithetic", "LDPsn", "LDPsn_A", "MDPsn", "BS"),
                paths=50_000, workers=1),
            PriceCall(
                payoff="arithmetic_asian_call", strikes=(50.0, 70.0),
                kinds=("Classic", "Antithetic", "ControlGeometric", "BS"),
                paths=100_000, workers=1),
        ),
        headline=(0, "LDPsn", 10.0),
        bands=(Band(0, "LDPsn", 10.0, lo=50.0),
               Band(1, "ControlGeometric", 50.0, lo=150.0, hi=700.0)),
    ),
}


def parse_rows(text: str) -> list[dict]:
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        out = {"kind": row["kind"]}
        for key, val in row.items():
            if key != "kind":
                out[key] = float(val)
        rows.append(out)
    return rows


def stable_digest(text: str) -> str:
    """SHA-256 of the CSV as ``--stable-output`` writes it (timing columns zeroed)."""
    lines = text.splitlines()
    header = lines[0].split(",")
    cols = [header.index(c) for c in TIMING_COLUMNS]
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        for c in cols:
            cells[c] = repr(0.0)
        out.append(",".join(cells))
    return hashlib.sha256(("\n".join(out) + "\n").encode()).hexdigest()


def gate(call: PriceCall, rows: list[dict], bands: list[Band]) -> list[str]:
    """Names of failed cells, each with the reason; empty when all pass.

    A cell fails when it is missing, has a non-finite price or standard
    error, lies more than MAX_GAP_SE combined standard errors from the
    Classic price at its strike, or breaks its acceptance band.
    """
    found = {(r["kind"], r["strike"]): r for r in rows}
    failures = []
    for kind, strike in call.cells():
        cell = f"{kind}@{strike:g}"
        row = found.get((kind, strike))
        if row is None:
            failures.append(f"{cell}: missing from the CSV")
            continue
        if not (math.isfinite(row["price"]) and math.isfinite(row["std_err"])):
            failures.append(f"{cell}: non-finite price {row['price']!r}")
            continue
        base = found.get(("Classic", strike))
        if kind != "Classic" and base is not None:
            se = math.hypot(row["std_err"], base["std_err"])
            gap = abs(row["price"] - base["price"]) / se if se > 0 else math.inf
            if not gap <= MAX_GAP_SE:
                failures.append(f"{cell}: {gap:.2f} standard errors from Classic")
                continue
        for band in bands:
            if (band.kind, band.strike) != (kind, strike):
                continue
            ratio = row["var_reduction"]
            if not band.lo <= ratio <= band.hi:
                failures.append(f"{cell}: var_reduction {ratio:.1f} outside "
                                f"[{band.lo:g}, {band.hi:g}]")
            elif band.above_others:
                others = [r["var_reduction"] for (k, s), r in found.items()
                          if s == strike and k != kind]
                if not all(ratio > o for o in others):
                    failures.append(f"{cell}: var_reduction {ratio:.1f} not above "
                                    f"every other kind at K={strike:g}")
    return failures


def time_to_accuracy(rows: list[dict]) -> float:
    """Seconds to reach TTA_REL_ERR relative standard error on the headline cell.

    From its CSV rows in every repetition: drift build plus simulation time
    per path times the paths needed. Times are medians over repetitions; the
    paths needed use the mean of variance / (TTA_REL_ERR * price)^2, because
    the repetitions ran at distinct seeds and each estimate counts equally.
    With one row this is drift_time_s + wall_time_s * need / n_paths.
    """
    drift = statistics.median(r["drift_time_s"] for r in rows)
    per_path = statistics.median(r["wall_time_s"] / r["n_paths"] for r in rows)
    need = statistics.fmean(r["variance"] / (TTA_REL_ERR * r["price"]) ** 2 for r in rows)
    return drift + per_path * need
