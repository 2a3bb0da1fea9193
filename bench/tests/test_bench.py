"""Tests of the benchmark's own helpers.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- self time ---------------------------------------------------------

def test_self_time_subtracts_nested_and_sibling_children():
    # span 0 is [0, 10]; spans 1 = [1, 4] and 3 = [5, 7] are siblings inside
    # it, and span 2 = [2, 3] is nested in span 1
    start, end = [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    start, end, parent = [0.0, 1.0, 3.0], [10.0, 4.0, 6.0], [-1, 0, 0]
    assert tracing.self_times(start, end, parent) == [5.0, 3.0, 3.0]


def test_self_time_of_a_leaf_is_its_duration():
    assert tracing.self_times([2.0], [2.5], [-1]) == [0.5]


# -- percentiles -------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 500), (39, 500), (40, 750), (99, 750),
    (100, 900), (199, 900), (200, 950), (999, 950), (1000, 990),
    (9999, 990), (10000, 999),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_percentile_is_the_nearest_rank():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert run.percentile(values, 500) == 3.0
    assert run.percentile(values, 900) == 5.0
    assert run.percentile(values, 0) == 1.0
    assert run.percentile([7.0], 990) == 7.0
    # pooling repeated passes over the same items keeps the same item
    assert run.percentile(values * 7, 900) == run.percentile(values, 900)


# -- host speed --------------------------------------------------------

def _sampler(starts, durations):
    sampler = hostspeed.SpeedSampler()
    sampler.starts, sampler.durations = list(starts), list(durations)
    return sampler


def test_reference_seconds_leave_out_slices_and_scale_by_speed():
    ref = hostspeed.REFERENCE_SLICE_S
    # slices of reference length at 0, 1 and 2: the interval [0, 3]
    # holds 3 - 3 * ref seconds of other work
    steady = _sampler([0.0, 1.0, 2.0], [ref] * 3)
    assert steady.reference_seconds(0.0, 3.0) == pytest.approx(3 - 3 * ref)
    # the same slices taking twice as long: a host at half speed
    slow = _sampler([0.0, 1.0, 2.0], [2 * ref] * 3)
    assert slow.reference_seconds(0.0, 3.0) == pytest.approx(
        (3 - 6 * ref) / 2)


def test_reference_seconds_follow_the_local_speed():
    ref = hostspeed.REFERENCE_SLICE_S
    # fast for the first five slices, half speed for the last five
    starts = [float(i) for i in range(10)]
    sampler = _sampler(starts, [ref] * 5 + [2 * ref] * 5)
    early = sampler.reference_seconds(1.5, 1.75)
    late = sampler.reference_seconds(7.5, 7.75)
    assert early == pytest.approx(0.25)
    assert late == pytest.approx(0.125)


def test_one_preempted_slice_does_not_move_the_speed():
    ref = hostspeed.REFERENCE_SLICE_S
    sampler = _sampler([0.0, 1.0, 2.0, 3.0, 4.0],
                       [ref, ref, 50 * ref, ref, ref])
    assert sampler.smoothed() == [ref] * 5


def test_sampler_runs_slices_during_a_pass():
    sampler = hostspeed.SpeedSampler(period=0.01)
    sampler.start()
    try:
        t0 = hostspeed.time.perf_counter()
        while hostspeed.time.perf_counter() - t0 < 0.1:
            hostspeed.calibrate()
    finally:
        sampler.stop()
    assert len(sampler.durations) >= 5
    assert sampler.reference_seconds(t0, t0 + 0.1) > 0


# -- failures ----------------------------------------------------------

def test_failed_ratio():
    assert run.failed_ratio(12, 0) == 0.0
    assert run.failed_ratio(12, 3) == 0.25
    with pytest.raises(ValueError):
        run.failed_ratio(0, 0)


def _corrupt_copy(tmp_path: Path, name: str, old: str, new: str) -> Path:
    ref = tmp_path / "reference"
    shutil.copytree(workloads.REFERENCE_DIR, ref)
    text = (ref / name).read_text()
    assert old in text
    (ref / name).write_text(text.replace(old, new, 1))
    return ref


def test_suites_item_fails_when_its_reference_is_corrupted(tmp_path):
    good = workloads.Suites(tmp_path)
    items = dict(good.setup(seed=1))
    item = ("jacobi-zariski", items["jacobi-zariski"])
    assert good.run(item).failed == 0

    ref = _corrupt_copy(tmp_path, "suites.json",
                        '"jacobi-zariski": {\n    "cases": 3',
                        '"jacobi-zariski": {\n    "cases": 4')
    bad = workloads.Suites(tmp_path, ref)
    items = dict(bad.setup(seed=1))
    outcome = bad.run(("jacobi-zariski", items["jacobi-zariski"]))
    assert outcome.failed == 1


def test_readme_level_fails_every_task_when_its_reference_is_corrupted(
        tmp_path):
    ref = _corrupt_copy(tmp_path, "readme-5.canonical.json", "maxdeg 5",
                        "maxdeg 6")
    good = workloads.ReadmeSession(tmp_path / "good")
    bad = workloads.ReadmeSession(tmp_path / "bad", ref)
    level5 = [item for item in good.setup(seed=1) if item[0] == 5]
    assert good.run(level5[0]).failed == 0
    level5 = [item for item in bad.setup(seed=1) if item[0] == 5]
    outcome = bad.run(level5[0])
    assert outcome.failed == len(outcome.times_ms) == 4


def test_surjection_fails_when_an_oracle_disagrees(monkeypatch, tmp_path):
    import aq
    wl = workloads.Surjections(tmp_path)
    case = wl.setup(seed=1)[0]
    assert wl.run(case).failed == 0
    monkeypatch.setattr(aq, "five_term_check",
                        lambda phi, points: {"passes": False})
    assert wl.run(case).failed == 1


def test_surjection_fails_when_the_library_raises(monkeypatch, tmp_path):
    import aq

    def disagree(*args):
        raise aq.ClassifyError("oracle disagreement")

    wl = workloads.Surjections(tmp_path)
    case = wl.setup(seed=1)[0]
    monkeypatch.setattr(aq, "classification_report", disagree)
    outcome = wl.run(case)
    assert outcome.failed == 1
    assert "ClassifyError" in outcome.canonical


def test_seed_orders_the_surjections_corpus(tmp_path):
    wl = workloads.Surjections(tmp_path)
    names = lambda seed: [c["name"] for c in wl.setup(seed)]  # noqa: E731
    assert names(1) == names(1)
    assert names(1) != names(2)
    assert sorted(names(1)) == sorted(names(2))


# -- tracing -----------------------------------------------------------

def _bindings():
    """Every attribute of every aq module and aq class, by identity."""
    import aq
    seen = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not mod_name.startswith("aq"):
            continue
        for attr, value in vars(mod).items():
            seen[(mod_name, attr)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("aq"):
                for a, v in vars(value).items():
                    seen[(mod_name, attr, a)] = id(v)
    assert aq
    return seen


def test_install_binds_every_imported_name_and_uninstall_restores():
    import aq
    from aq import cotangent, groebner, kahler, poly, suites
    original = groebner.module_groebner
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert groebner.module_groebner is not original
        assert groebner.module_groebner.__wrapped__ is original
        # names bound by `from .x import y` and by the package itself
        assert cotangent.relative_presentation is kahler.relative_presentation
        assert hasattr(cotangent.relative_presentation, "__wrapped__")
        assert suites.cotangent_trunc2 is cotangent.cotangent_trunc2
        assert aq.five_term_check is cotangent.five_term_check
        assert hasattr(aq.five_term_check, "__wrapped__")
        engine_init = vars(cotangent.SubmoduleEngine)["__init__"]
        assert engine_init.__wrapped__ is vars(groebner.SubmoduleEngine)[
            "__init__"].__wrapped__
        assert hasattr(vars(poly.Polynomial)["__mul__"], "__wrapped__")
        ring = poly.PolyRing(aq.QQ, ("x",))
        x = ring.var("x")
        y = (x * x) ** 2
        assert tracer.counts["poly.pow.calls"] == 1
        assert tracer.counts["poly.mul.calls"] >= 3
        assert y == ring.monomial((4,))
    finally:
        tracer.uninstall()
    assert _bindings() == before


def _worker(workload: str, trace: str, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, "1", trace,
         str(out)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_counts_repeat_exactly_and_outputs_match(tmp_path):
    first = _worker("surjections", "1", tmp_path)
    second = _worker("surjections", "1", tmp_path)
    plain = _worker("surjections", "0", tmp_path)

    def exact(result):
        return {k: v for k, v in result["layers"].items()
                if not k.endswith(".self_s")}

    assert exact(first) == exact(second)
    assert first["digest"] == second["digest"] == plain["digest"]
    assert first["failed"] == 0
    layers = first["layers"]
    assert layers["simplicial.identities.calls"] == 0
    assert layers["groebner.module_groebner.calls"] > 0
    assert layers["fields.ops.qq"] > 0 and layers["fields.ops.gfp"] > 0
    assert (tmp_path / "spans-surjections.txt").is_file()


# -- the benchmark's declaration ---------------------------------------

def test_benchmark_json_declares_what_the_benchmark_reports(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    tracer = tracing.Tracer()
    layer_names = list(tracing.layer_metrics(tracer, [])) + [
        "trace.overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert all(m["unit"] == run.unit(m["name"]) for m in spec["per_layer"])
    predictions = json.loads((BENCH / "predictions.json").read_text())
    predicted = {m for row in predictions["predictions"]
                 for m in row["metrics"]}
    assert predicted == set(layer_names)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suites", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
