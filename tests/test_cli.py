import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvlab

from curvlab import build_A0, load_model
from curvlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_and_check_a0(tmp_path, capsys):
    path = tmp_path / "a0.json"
    code, _, _ = run(capsys, "build", "a0", "--m", "4", "--out", str(path))
    assert code == 0
    loaded = load_model(path)
    assert np.array_equal(loaded.model.tensor.entries, build_A0(4).entries)
    # 2 m (m-1) = 24 nonzero entries of magnitude 1
    assert int(np.sum(loaded.model.tensor.entries != 0)) == 24
    assert set(np.unique(np.abs(loaded.model.tensor.entries))) == {0.0, 1.0}
    code, _, _ = run(capsys, "check", str(path), "symmetries", "compatibility")
    assert code == 0


def test_check_lemma23_exit_codes(tmp_path, capsys):
    a0 = tmp_path / "a0.json"
    cx = tmp_path / "cx.json"
    run(capsys, "build", "a0", "--m", "4", "--out", str(a0))
    run(capsys, "build", "counterexample", "--m", "4", "--out", str(cx))
    code, out, _ = run(capsys, "check", str(a0), "lemma23")
    assert code == 1
    assert "witness" in out
    code, _, _ = run(capsys, "check", str(cx), "lemma23")
    assert code == 0


def test_build_random_is_byte_deterministic(tmp_path, capsys):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    run(capsys, "build", "random", "--m", "6", "--seed", "7", "--out", str(p1))
    run(capsys, "build", "random", "--m", "6", "--seed", "7", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_json_report_schema(tmp_path, capsys):
    path = tmp_path / "fs.json"
    run(capsys, "build", "fubini-study", "--m", "4", "--out", str(path))
    code, out, _ = run(
        capsys, "--output", "json", "check", str(path), "gray-classify", "gray-yano"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) >= {"command", "results", "status"}
    assert doc["status"] == 0
    for res in doc["results"]:
        assert set(res) == {"name", "holds", "residual", "witness"}
        assert res["holds"] is True
    classify = next(r for r in doc["results"] if r["name"] == "gray-classify")
    assert ["a1", True] in classify["witness"]


def test_unknown_identity_is_usage_error(tmp_path, capsys):
    path = tmp_path / "a0.json"
    run(capsys, "build", "a0", "--m", "4", "--out", str(path))
    code, _, err = run(capsys, "check", str(path), "nonsense")
    assert code == 2
    assert "unknown identity" in err


def test_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"), "symmetries")
    assert code == 2


def test_dimension_gate_is_usage_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "build", "counterexample", "--m", "6", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "4n" in err


def test_spectra_sweep_and_vector(tmp_path, capsys):
    path = tmp_path / "fs.json"
    run(capsys, "build", "fubini-study", "--m", "4", "--out", str(path))
    code, out, _ = run(capsys, "--output", "json", "spectra", str(path))
    doc = json.loads(out)
    assert code == 0
    assert len(doc["spectra"]) == 6  # deduplicated spanning lines at m=4
    code, out, _ = run(capsys, "--output", "json", "spectra", str(path), "--at", "1,0,0,0")
    doc = json.loads(out)
    jac = doc["spectra"][0]["eigenvalues"]
    assert jac == [[0.0, 1], [1.0, 2], [4.0, 1]]


@pytest.mark.parametrize("at", ["0,0,0,0", "abc", "nan,0,0,1"], ids=["zero", "unparseable", "nan"])
def test_spectra_rejects_bad_vector(tmp_path, capsys, at):
    path = tmp_path / "fs.json"
    run(capsys, "build", "fubini-study", "--m", "4", "--out", str(path))
    env = dict(os.environ, PYTHONPATH=str(Path(curvlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "curvlab.cli", "spectra", str(path), "--at", at],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_reconstruct_roundtrip(tmp_path, capsys):
    src = tmp_path / "a0.json"
    out_path = tmp_path / "rec.json"
    run(capsys, "build", "a0", "--m", "4", "--out", str(src))
    code, out, _ = run(capsys, "reconstruct", str(src), "--mode", "jacobi", "--out", str(out_path))
    assert code == 0
    rec = load_model(out_path)
    np.testing.assert_allclose(rec.model.tensor.entries, build_A0(4).entries, atol=1e-10)
    code, _, _ = run(
        capsys, "reconstruct", str(tmp_path / "fs2.json"), "--mode", "jacobi", "--out", str(out_path)
    )
    assert code == 2  # missing input file


def test_reconstruct_complex_mode(tmp_path, capsys):
    src = tmp_path / "fs.json"
    out_path = tmp_path / "rec.json"
    run(capsys, "build", "fubini-study", "--m", "4", "--out", str(src))
    code, out, _ = run(
        capsys, "reconstruct", str(src), "--mode", "complex-jacobi", "--out", str(out_path)
    )
    assert code == 0
    assert "round-trip relative error" in out


def test_diff_twistor_phenomenon(tmp_path, capsys):
    tw = tmp_path / "tw.json"
    theta = tmp_path / "theta.json"
    pb = tmp_path / "pb.json"
    run(
        capsys,
        "build",
        "twistor",
        "--m",
        "4",
        "--out",
        str(tw),
        "--theta-out",
        str(theta),
        "--pullback-out",
        str(pb),
    )
    code, out, _ = run(capsys, "diff", str(tw), str(tw), "--theta", str(theta))
    assert code == 0
    assert "complex-Jacobi-equivalent: yes" in out
    assert "tensors equal: no" in out
    # same verdict comparing against the stored pullback with the identity map
    code, out, _ = run(capsys, "diff", str(tw), str(pb))
    assert code == 0
    assert "complex-Jacobi-equivalent: yes" in out
    assert "tensors equal: no" in out


def test_diff_self_is_equal(tmp_path, capsys):
    fs = tmp_path / "fs.json"
    run(capsys, "build", "fubini-study", "--m", "4", "--out", str(fs))
    code, out, _ = run(capsys, "diff", str(fs), str(fs))
    assert code == 0
    assert "tensors equal: yes" in out


def test_subspace_dim_command(capsys):
    code, out, _ = run(capsys, "subspace-dim", "--m", "4", "--constraints", "gray-yano,a2perp")
    assert code == 0
    assert out.strip().splitlines()[-2].strip() == "0"
    code, out, _ = run(capsys, "subspace-dim", "--m", "4", "--constraints", "")
    assert "20" in out
    code, _, err = run(capsys, "subspace-dim", "--m", "4", "--constraints", "bogus")
    assert code == 2


def test_tolerance_env_override(monkeypatch):
    from curvlab.cli import build_parser

    monkeypatch.setenv("CURVLAB_TOL", "1e-6")
    args = build_parser().parse_args(["subspace-dim", "--m", "4"])
    assert args.tol == 1e-6


def test_sparse_storage_build(tmp_path, capsys):
    path = tmp_path / "a0s.json"
    code, _, _ = run(capsys, "build", "a0", "--m", "4", "--storage", "sparse", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["A"]["storage"] == "sparse"
    loaded = load_model(path)
    np.testing.assert_allclose(loaded.model.tensor.entries, build_A0(4).entries, atol=1e-14)
