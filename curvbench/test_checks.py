"""Self-tests of the benchmark: its checks reject wrong outputs, and every
workload runs end to end at a small size and prints the declared metrics.

    python3 -m pytest -q curvbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _curvlab_check(path):
    from curvlab.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["check", str(path), *checks.IDENTITIES, "--output", "json"])
    return code, json.loads(buf.getvalue())


@pytest.fixture(scope="module")
def battery_case(tmp_path_factory):
    m = 4
    a = inputs.battery_model(np.random.default_rng(3), m)
    path = tmp_path_factory.mktemp("battery") / "model.json"
    inputs.write_model(path, inputs.standard_j(m), a, "test")
    expected = checks.expected_battery(a, inputs.standard_j(m), np.random.default_rng(4))
    code, report = _curvlab_check(path)
    return expected, report, code


def test_battery_check_accepts_curvlab_output(battery_case):
    expected, report, code = battery_case
    assert checks.check_battery(expected, report, code) == []
    # Truly failing identities are part of the expectation, not an error.
    assert expected["exit_code"] == 1 and not expected["holds"]["lemma23"]


@pytest.mark.parametrize("name", checks.IDENTITIES)
def test_battery_check_rejects_flipped_verdict(battery_case, name):
    expected, report, code = battery_case
    bad = copy.deepcopy(report)
    res = bad["results"][checks.IDENTITIES.index(name)]
    res["holds"] = not res["holds"]
    assert checks.check_battery(expected, bad, code)


def test_battery_check_rejects_flipped_gray_class(battery_case):
    expected, report, code = battery_case
    bad = copy.deepcopy(report)
    witness = bad["results"][checks.IDENTITIES.index("gray-classify")]["witness"]
    witness[0][1] = not witness[0][1]
    assert checks.check_battery(expected, bad, code)


def test_battery_check_rejects_wrong_exit_code(battery_case):
    expected, report, code = battery_case
    assert checks.check_battery(expected, report, 1 - code)
    assert checks.check_battery(expected, report, 2)
    assert checks.check_battery(expected, None, code)


def test_expectation_refuses_incompatible_model():
    m = 4
    g = np.random.default_rng(0).standard_normal((m, m))
    a = inputs.a_sym(g + g.T)  # S does not commute with J
    with pytest.raises(AssertionError):
        checks.expected_battery(a, inputs.standard_j(m), np.random.default_rng(1))


def test_eight_term_check_rejects_non_kaehler_tensor():
    m = 4
    j = inputs.standard_j(m)
    kaehler = inputs.kaehler_product(np.random.default_rng(0), m)
    assert inputs.eight_term_defect(kaehler, j) < 1e-12
    g = np.random.default_rng(1).standard_normal((m, m))
    assert inputs.eight_term_defect(inputs.a_sym(g + g.T), j) > 1e-3


def test_tensor_check_rejects_perturbed_reconstruction():
    from curvlab import ComplexJacobiOracle, ComplexModel, reconstruct_from_complex_jacobi
    from curvlab import standard_complex_structure, validate_or_project

    m = 4
    a = inputs.kaehler_product(np.random.default_rng(5), m)
    model = ComplexModel(standard_complex_structure(m), validate_or_project(a))
    recon = reconstruct_from_complex_jacobi(ComplexJacobiOracle.from_model(model)).entries
    assert checks.check_tensor(a, recon) == []
    bump = np.zeros_like(a)
    bump[0, 1, 1, 0] = 1e-6 * np.linalg.norm(a)
    assert checks.check_tensor(a, recon + bump)
    assert checks.check_tensor(a, recon[:2])


def test_reconstruct_exit_check():
    assert checks.check_reconstruct_exit(0) == []
    assert checks.check_reconstruct_exit(1)
    assert checks.check_reconstruct_exit(2)


def test_model_files_round_trip_exactly(tmp_path):
    a = inputs.kaehler_product(np.random.default_rng(2), 6)
    path = tmp_path / "m.json"
    inputs.write_model(path, inputs.standard_j(6), a, "test")
    assert np.array_equal(inputs.read_entries(path), a)


def test_layer_metrics_match_benchmark_json():
    declared = {(m["name"], m["unit"]) for m in _spec()["per_layer"]}
    assert declared == {(name, unit) for name, unit, _, _ in tracing.LAYER_METRICS}


def _run(workload, trace, monkeypatch, capsys):
    import run

    monkeypatch.setitem(run.WORKLOADS, workload, {**run.WORKLOADS[workload], "m": 4})
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["battery", "reconstruct-cold", "reconstruct-warm"])
def test_workload_runs_and_prints_declared_metrics(workload, trace, monkeypatch, capsys):
    spec = _spec()
    assert workload in {w["name"] for w in spec["workloads"]}
    result = _run(workload, trace, monkeypatch, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "battery":
        assert values["identities.check_compatibility.calls"] > 0
        assert values["operators.complex_jacobi.calls"] > 0  # seen from identities
        assert values["tensors.curvature_space_basis.calls"] == 0
    else:
        assert values["constructions.reconstruct_from_complex_jacobi.self_ms"] > 0
        assert values["operators.complex_jacobi.calls"] > 0  # seen from the oracle
        assert values["tensors.curvature_space_basis.computed"] == (1 if workload == "reconstruct-cold" else 0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
