"""The price CSV as perfbench's correctness gate reads it.

perfbench exits 1 when a cell fails ``workloads.gate`` or when reading the
CSV raises (``parse_rows`` turns every column but ``kind`` into a float), and
then reports no numbers. One small run of the ``asian_itm_bs_a2`` cells
checks that contract here.
"""

import math
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import PriceCall, gate, parse_rows  # noqa: E402

from hestonis.cli import main  # noqa: E402


def test_a_small_price_run_passes_the_perfbench_gate(tmp_path):
    call = PriceCall(payoff="geometric_asian_call", strikes=(30.0,), kinds=("Classic", "BS_A2"),
                     paths=2_000, workers=2)
    out = tmp_path / "prices.csv"
    assert main(call.argv(20240, str(out))) == 0
    rows = parse_rows(out.read_text())
    assert sorted(r["kind"] for r in rows) == ["BS_A2", "Classic"]
    assert all(math.isfinite(r["price"]) and math.isfinite(r["std_err"]) for r in rows)
    assert gate(call, rows, []) == []
