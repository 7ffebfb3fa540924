"""The benchmark's tracer still runs against the package.

``bench/tracer.py`` patches public names of warpsim from outside and reads
``mem.race_warnings`` and ``mem.access_log`` after every traced launch. This
runs one small op of each kind the benchmark traces, the way
``bench/workloads.py`` runs them, with the tracer installed.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from warpsim import DeviceMemory, LaunchConfig, MetricsReport, Simulator, cli, kernels

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer as tracing

    tr = tracing.Tracer()
    with tr.installed():
        tr.begin_op(0)
        yield tr
    sys.modules.pop("tracer", None)


def scatter(ctx, out):
    out[ctx.global_id // 2] = ctx.global_id  # two lanes per address: a race


def test_traced_ops_run(tracer):
    values = list(range(16))
    assert kernels.reduce_sum(values)[0] == sum(values)
    assert kernels.inclusive_scan_hillis_steele(values)[0][-1] == sum(values)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["trace", "--kernel", "reduce_sum", "--size", "16"]) == 0
    mem = DeviceMemory()
    out = mem.alloc("out", 16)
    Simulator().launch(scatter, LaunchConfig(1, 32), mem, (out,), mode="permissive", metrics=MetricsReport())

    tally = tracer.tallies[0]
    assert tally["engine.race_warnings"] > 0
    assert "memory.access_log_records" in tally
    assert tally["engine.global_transactions"] > 0
    names = {span[0] for span in tracer.spans}
    assert {"kernels.reduce_sum", "cli.main", "engine.launch", "engine.shared_store"} <= names
