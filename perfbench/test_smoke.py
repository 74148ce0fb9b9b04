"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer, span_cost_s  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = run.Sizes(
    sweep_degrees=(8, 16),
    certify_degrees=(16, 32),
    probe_degree=48,
    zeros_degree=96,
    disk_centers=16,
    repro_degrees=(8,),
    repro_trials=1,
)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_reports_every_metric(workload, trace):
    result, lines = run.run(workload, seed=3, seconds=0.0, trace=trace, sizes=TINY)
    expected = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert result["correct"], [ln for ln in lines if ln.startswith("CHECK FAILED")]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert list(result["metrics"]) == expected
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        if not trace:
            assert metric["value"] > 0, name


def test_same_seed_same_counts():
    first, _ = run.run("sweep", seed=5, seconds=0.0, trace=True, sizes=TINY)
    second, _ = run.run("sweep", seed=5, seconds=0.0, trace=True, sizes=TINY)
    for name in ("harness.verdicts.pass", "harness.verdicts.inapplicable", "norms.level_set.evaluations"):
        assert first["metrics"][name] == second["metrics"][name]


def test_capped_inputs_are_counted_not_timed():
    pz = run.load_polyzero()
    workload = run.CertifyWorkload(pz, 3, TINY)
    capped = workload.inputs(1)
    banned = {pz.make_family(pz.FamilySpec(f, n, seed=s)).coeffs for f, n, s in capped}
    real = workload._p_norm

    def p_norm(poly, exponent, **kw):
        if poly.coeffs in banned:
            raise pz.QuadratureError("grid cap")
        return real(poly, exponent, **kw)

    workload._p_norm = p_norm
    items, _ = run.loop(workload, 0.0)
    assert [i.key for i in items] == [0, 2, 3]
    assert workload.capped == [(1, *inp) for inp in capped]
    assert workload.screened == 4 * len(capped)  # keys 0..3
    assert sum(i.attempted for i in items) == 6 and not any(i.failures for i in items)


def test_tracer_self_time_and_error_origin():
    run.load_polyzero()
    import polyzero

    tracer = Tracer()
    with tracer:
        p = polyzero.make_family(polyzero.FamilySpec("littlewood", 24, seed=1))
        tracer.run(polyzero.certify, p)
        with pytest.raises(polyzero.QuadratureError):
            tracer.run(polyzero.p_norm, p, 1.0, tol=1e-300, max_points=1024)
    assert polyzero.harness.find_roots.__name__ == "find_roots"
    assert not hasattr(polyzero.harness.find_roots, "__wrapped__")
    assert tracer.attribution_errors() == []
    s = tracer.summary()
    assert s.calls["harness.certify"] == 1 and s.calls["roots.find_roots"] == 1
    assert s.inclusive_s["harness.certify"] >= s.inclusive_s["norms.compute_profile"] > 0
    assert dict(tracer.raised) == {"norms.p_norm": {"QuadratureError": 1}}


def test_attribution_check_flags_spans_that_do_not_nest():
    tracer = Tracer()
    # Overlapping siblings (as from two threads) and a child that outlives its parent.
    tracer.spans = [["bench", 0.0, 1.0, -1], ["a", 0.0, 0.8, 0], ["b", 0.2, 0.9, 0], ["c", 0.5, 1.5, -1], ["d", 1.0, 1.6, 3]]
    errors = tracer.attribution_errors()
    assert any(e.startswith("bench: child spans cover") for e in errors)
    assert "d lies outside its parent c" in errors


def test_span_cost_is_small_and_positive():
    cost = span_cost_s(calls=2000, repeats=3)
    assert 0.0 < cost < 1e-4


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
