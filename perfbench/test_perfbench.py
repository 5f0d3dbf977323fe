"""Checks of the benchmark itself, at reduced path counts.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import OUT, load_cli, run_workload  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 777
PATHS = 30_000  # two chunks (25k + 5k), so two workers share the work

EXACT_COUNTS = (
    "sim.path_steps", "sim.chunks", "drift_bs.a2_step_calls",
    "drift_ldp.optimum_calls", "varopt.evals", "bench.factory_hit_frac",
    "measure.ess_frac", "payoff.hit_frac",
)


@pytest.fixture(scope="module")
def cli():
    return load_cli()


def _traced_pass(cli, wl):
    tracer = Tracer().install()
    try:
        res = run_workload(cli, wl, SEED, tracer=tracer, paths=PATHS)
    finally:
        tracer.uninstall()
    return layer_metrics(tracer, wl.headline_key(), res["weighted_wall_s"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly(cli, name):
    wl = WORKLOADS[name]
    first, second = _traced_pass(cli, wl), _traced_pass(cli, wl)
    for key in EXACT_COUNTS:
        assert first[key][0] == second[key][0], key
    assert first["sim.chunks"][0] > 0


def test_tracer_restores_every_function(cli):
    from hestonis import bench, drift_bs, sim, varopt

    before = (sim.simulate_q, bench.run_estimator, bench.DriftFactory.build,
              drift_bs.bs_fully_adaptive_step, varopt.VariationalProblem.value)
    Tracer().install().uninstall()
    after = (sim.simulate_q, bench.run_estimator, bench.DriftFactory.build,
             drift_bs.bs_fully_adaptive_step, varopt.VariationalProblem.value)
    assert before == after


def test_digest_is_worker_invariant_and_matches_stable_output(cli):
    wl = WORKLOADS["asian_fixed_drift"]
    one = run_workload(cli, wl, SEED, paths=PATHS, workers=1)
    two = run_workload(cli, wl, SEED, paths=PATHS, workers=2)
    assert one["digests"] == two["digests"]
    assert all(one["digests"])

    out = OUT / "stable-output-check.csv"
    argv = wl.calls[0].argv(SEED, str(out), paths=PATHS, workers=2) + ["--stable-output"]
    try:
        assert cli.main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == one["digests"][0]
    finally:
        out.unlink(missing_ok=True)

