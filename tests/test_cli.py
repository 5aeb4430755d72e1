import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvlab

from curvlab import build_A0, load_model
from curvlab.cli import main
from curvlab.identities import CHECKS, run_check
from helpers import load_repo_module


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
    code, out, _ = run(capsys, "--output", "json", "check", str(path), *CHECKS)
    # Fubini-Study has Q = 4, so sato2's precondition fails, and a nonzero
    # complex Jacobi operator, so the vanishing battery fails
    assert code == 1
    doc = json.loads(out)
    assert set(doc) >= {"command", "results", "status"}
    assert doc["status"] == 1
    assert [res["name"] for res in doc["results"]] == list(CHECKS)
    for res in doc["results"]:
        assert set(res) == {"name", "holds", "residual", "witness"}
        assert res["holds"] is (res["name"] not in ("sato2", "lemma23"))
    by_name = {res["name"]: res for res in doc["results"]}
    assert by_name["sato2"]["residual"] is None
    assert by_name["sato2"]["witness"][0] == "precondition"
    assert isinstance(by_name["sato2"]["witness"][1], str)
    assert by_name["gray-classify"]["witness"] == [
        ["a1", True], ["a2", True], ["a3", True], ["a2perp", False]
    ]


@pytest.mark.parametrize("kind", ["fubini-study", "counterexample", "twistor", "random"])
def test_check_results_are_the_reports_json(tmp_path, capsys, kind):
    path = tmp_path / "model.json"
    run(capsys, "build", kind, "--m", "4", "--seed", "1", "--out", str(path))
    flags = ["--output", "json", "--tol", "1e-10", "--seed", "2"]
    _, out, _ = run(capsys, *flags, "check", str(path), *CHECKS)
    model = load_model(path).model
    expected = [run_check(name, model, 1e-10).to_json() for name in CHECKS]
    assert json.loads(out)["results"] == expected


def test_json_reports_print_on_one_line(tmp_path, capsys):
    # every command prints its JSON object compact on one line, keys sorted
    tw, twp, theta = (str(tmp_path / name) for name in ("tw.json", "twp.json", "theta.json"))
    fs = str(tmp_path / "fs.json")
    commands = [
        ["build", "fubini-study", "--m", "4", "--out", fs],
        ["build", "twistor", "--m", "4", "--out", tw, "--theta-out", theta, "--pullback-out", twp],
        ["check", fs, *CHECKS],
        ["spectra", fs],
        ["spectra", tw, "--at", "1,0,0,0"],
        ["reconstruct", tw, "--mode", "jacobi", "--out", str(tmp_path / "rj.json")],
        ["reconstruct", tw, "--mode", "complex-jacobi", "--out", str(tmp_path / "rc.json")],
        ["diff", tw, twp, "--theta", theta],
        ["subspace-dim", "--m", "4", "--constraints", "a2perp"],
    ]
    for argv in commands:
        _, out, _ = run(capsys, "--output", "json", *argv)
        line, end = out.split("\n", 1) if "\n" in out else (out, None)
        assert end == "", argv
        assert line == json.dumps(json.loads(line), sort_keys=True, allow_nan=False), argv
        if argv[0] == "check":
            model = load_model(fs).model
            assert json.loads(line)["results"] == [run_check(name, model).to_json() for name in CHECKS]


def _text_results(out: str) -> list[tuple[str, str, str]]:
    """(name, mark, residual) of each result line of a text report."""
    return re.findall(r"^  (\S+) +(pass|FAIL)  residual (\S+)$", out, flags=re.MULTILINE)


def _json_results(out: str) -> list[tuple[str, str, str]]:
    results = json.loads(out)["results"]
    residuals = ["nan" if res["residual"] is None else f"{res['residual']:.3e}" for res in results]
    return [(res["name"], "pass" if res["holds"] else "FAIL", r) for res, r in zip(results, residuals)]


def test_text_and_json_list_the_same_results(tmp_path, capsys):
    tw, twp, theta = (str(tmp_path / name) for name in ("tw.json", "twp.json", "theta.json"))
    fs, a0 = str(tmp_path / "fs.json"), str(tmp_path / "a0.json")
    run(capsys, "build", "fubini-study", "--m", "4", "--out", fs)
    commands = [
        ["build", "a0", "--m", "4", "--out", a0],
        ["build", "twistor", "--m", "4", "--out", tw, "--theta-out", theta, "--pullback-out", twp],
        ["check", fs, *CHECKS],
        ["check", a0, *CHECKS],
        ["spectra", fs],
        ["spectra", tw, "--at", "1,0,0,0"],
        ["reconstruct", tw, "--mode", "jacobi", "--out", str(tmp_path / "rj.json")],
        ["reconstruct", tw, "--mode", "complex-jacobi", "--out", str(tmp_path / "rc.json")],
        ["diff", tw, twp],
        ["diff", a0, fs],
        ["subspace-dim", "--m", "4", "--constraints", "a2perp"],
    ]
    marks = set()
    for argv in commands:
        text_code, text, _ = run(capsys, "--output", "text", *argv)
        json_code, doc, _ = run(capsys, "--output", "json", *argv)
        assert text_code == json_code
        assert _text_results(text) == _json_results(doc) != []
        marks.update((mark, residual == "nan") for _, mark, residual in _json_results(doc))
    # passes, failures and a failed precondition's NaN residual are all compared
    assert marks == {("pass", False), ("FAIL", False), ("FAIL", True)}


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
    assert len(doc["spectra"]) == 5  # the lines through the 10 probes at m = 4
    code, out, _ = run(capsys, "--output", "json", "spectra", str(path), "--at", "1,0,0,0")
    doc = json.loads(out)
    jac = doc["spectra"][0]["eigenvalues"]
    assert jac == [[0.0, 1], [1.0, 2], [4.0, 1]]


def test_spectra_of_a_model_near_the_float_range(tmp_path, capsys):
    # the largest entry of 4e307 * A is 1.6e308, and J(pi) reaches it; the
    # spectra are exactly 4e307 times those of A, not an overflow
    path, big = tmp_path / "fs.json", tmp_path / "fs-big.json"
    run(capsys, "build", "fubini-study", "--m", "4", "--out", str(path))
    model = load_model(str(path)).model
    curvlab.save_model(curvlab.ComplexModel(model.structure, 4e307 * model.tensor), str(big))
    for at in ("sweep", "1,0,0,0"):
        code, out, _ = run(capsys, "--output", "json", "spectra", str(path), "--at", at)
        assert code == 0
        expected = json.loads(out)["spectra"]
        code, out, _ = run(capsys, "--output", "json", "spectra", str(big), "--at", at)
        assert code == 0
        spectra = json.loads(out)["spectra"]
        assert len(spectra) == len(expected)
        for entry, plain in zip(spectra, expected):
            assert [mult for _, mult in entry["eigenvalues"]] == [mult for _, mult in plain["eigenvalues"]]
            for (value, _), (unscaled, _) in zip(entry["eigenvalues"], plain["eigenvalues"]):
                assert abs(value - 4e307 * unscaled) <= 1e-15 * abs(4e307 * unscaled)


def test_spectra_of_a_small_scale_model_keeps_distinct_eigenvalues(tmp_path, capsys):
    # eigenvalues merge relative to the tensor's largest entry, so at scale
    # 1e-9 the spectra keep the groups of the unscaled model, not one group
    # within 1e-8
    path, small = tmp_path / "fs.json", tmp_path / "fs-small.json"
    run(capsys, "build", "fubini-study", "--m", "4", "--out", str(path))
    model = load_model(str(path)).model
    curvlab.save_model(curvlab.ComplexModel(model.structure, 1e-9 * model.tensor), str(small))
    code, out, _ = run(capsys, "--output", "json", "spectra", str(small), "--at", "1,0,0,0")
    assert code == 0
    jacobi_spectrum, complex_spectrum = (entry["eigenvalues"] for entry in json.loads(out)["spectra"])
    assert [mult for _, mult in jacobi_spectrum] == [1, 2, 1]
    assert [mult for _, mult in complex_spectrum] == [2, 2]
    for (value, _), expected in zip(jacobi_spectrum + complex_spectrum, (0.0, 1e-9, 4e-9, 2e-9, 4e-9)):
        assert abs(value - expected) <= 1e-22


def test_spectra_of_a_vanishing_complex_jacobi_operator_read_zero(tmp_path, capsys):
    # the counterexample's complex Jacobi operator vanishes on every line; at
    # m = 8 it is rounding noise, which merges at the tensor's scale
    path = tmp_path / "counterexample.json"
    run(capsys, "build", "counterexample", "--m", "8", "--out", str(path))
    code, out, _ = run(capsys, "--output", "json", "spectra", str(path))
    assert code == 0
    for entry in json.loads(out)["spectra"]:
        ((value, mult),) = entry["eigenvalues"]
        assert mult == 8 and abs(value) <= 1e-15


def run_subprocess(*argv, env=None):
    """Run the CLI in a fresh interpreter, so that an escaping traceback shows on stderr."""
    env = dict(os.environ, **(env or {}), PYTHONPATH=str(Path(curvlab.__file__).parents[1]))
    return subprocess.run(
        # warnings fail here as they do in-process (see pyproject.toml)
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "curvlab.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("at", ["0,0,0,0", "abc", "nan,0,0,1"], ids=["zero", "unparseable", "nan"])
def test_spectra_rejects_bad_vector(tmp_path, capsys, at):
    path = tmp_path / "fs.json"
    run(capsys, "build", "fubini-study", "--m", "4", "--out", str(path))
    proc = run_subprocess("spectra", str(path), "--at", at)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


# one edit of a valid m = 2 model file per case; None runs the model unchanged,
# and a string is the whole file
_A0_M2 = {
    "dim": 2,
    "J": [[0.0, -1.0], [1.0, 0.0]],
    "A": {"storage": "sparse", "entries": [[0, 1, 1, 0, 1.0]]},
}
_DEEP = "[" * 3000 + "]" * 3000  # more nesting than the JSON decoder recurses through


@pytest.mark.parametrize(
    "edit,extra,tail,env",
    [
        ({"dim": "x"}, (), (), None),
        ({"A": []}, (), (), None),
        ({"J": "abc"}, (), (), None),
        ({"J": [[0.0, float("nan")], [1.0, 0.0]]}, (), (), None),
        ({"A": {"storage": "sparse", "entries": [["a", 1, 1, 0, 1.0]]}}, (), (), None),
        ({"A": {"storage": "sparse", "entries": [[0, 1, 1, 0, float("nan")]]}}, (), (), None),
        ({"A": {"storage": "sparse", "entries": [[0, 1, 1, 0, float("inf")]]}}, (), (), None),
        ({"A": {"storage": "sparse", "entries": [[0, 1, 1, 0, 1e308], [1, 0, 1, 0, 1e308]]}}, (), (), None),
        ({"A": {"storage": "dense", "entries": "abc"}}, (), (), None),
        ({"J": [[0.0, -1e300], [1e300, 0.0]]}, (), (), None),
        ('{"dim": ' + _DEEP + "}", (), (), None),
        (None, ("--samples", "3"), (), None),  # no such option
        (None, ("--seed", "-1"), (), None),
        (None, ("--tol", "nan"), (), None),
        (None, ("--tol", "-1"), (), None),
        (None, (), ("--tol", "nan"), None),
        (None, (), (), {"CURVLAB_TOL": "abc"}),
    ],
    ids=[
        "dim", "A", "J", "J-nan", "sparse-index", "sparse-nan", "sparse-inf", "sparse-huge-conflict",
        "dense", "J-huge", "deep",
        "samples", "seed", "tol-nan", "tol-negative", "subcommand-tol-nan", "env-tol",
    ],
)
def test_bad_input_is_usage_error(tmp_path, edit, extra, tail, env):
    path = tmp_path / "bad.json"
    path.write_text(edit if isinstance(edit, str) else json.dumps({**_A0_M2, **(edit or {})}))
    proc = run_subprocess(*extra, "check", str(path), "symmetries", *tail, env=env)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "data",
    [
        b"\xef\xbb\xbf" + json.dumps(_A0_M2).encode(),
        json.dumps(_A0_M2).encode("utf-16"),
        json.dumps({**_A0_M2, "metadata": {"kind": "KIND"}}).encode().replace(b"KIND", b"\xff\xfe"),
    ],
    ids=["utf-8-bom", "utf-16", "invalid-utf-8"],
)
def test_undecodable_model_file_is_usage_error(tmp_path, data):
    # model files are UTF-8 without a byte order mark, whatever json.loads
    # would detect in raw bytes
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    proc = run_subprocess("check", str(path), "symmetries")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "not a model file" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "text,message",
    [
        ("not json", "not a matrix file"),
        ('{"theta": "abc"}', "not a matrix file"),
        ('{"theta": [[NaN, 0], [0, 1]]}', "finite"),
        ('{"J": []}', "theta"),
        ('{"theta": ' + _DEEP + "}", "not a matrix file"),
        ('{"theta": [[1e300, 0], [0, 1]]}', "orthogonal"),
    ],
    ids=["json", "matrix", "nan", "key", "deep", "huge"],
)
def test_bad_matrix_file_is_usage_error(tmp_path, text, message):
    model, theta = tmp_path / "a0.json", tmp_path / "theta.json"
    model.write_text(json.dumps(_A0_M2))
    theta.write_text(text)
    proc = run_subprocess("diff", str(model), str(model), "--theta", str(theta))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_deep_structure_file_is_usage_error(tmp_path):
    j = tmp_path / "j.json"
    j.write_text('{"J": ' + _DEEP + "}")
    proc = run_subprocess("subspace-dim", "--m", "2", "--j", str(j))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "not a matrix file" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_closed_stdout_is_usage_error(tmp_path, capsys):
    # exit 1 would read as a failed check
    path = tmp_path / "fs.json"
    run(capsys, "build", "fubini-study", "--m", "4", "--out", str(path))
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes
    try:
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "curvlab.cli",
             "check", str(path), "symmetries", "compatibility", "--output", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(curvlab.__file__).parents[1])),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_json_output_is_strict(tmp_path, capsys):
    # precondition failures have no residual: JSON gets null, text still prints nan
    path = tmp_path / "r.json"
    run(capsys, "build", "random", "--m", "4", "--seed", "1", "--out", str(path))
    code, out, _ = run(capsys, "--output", "json", "check", str(path), *CHECKS)
    assert code == 1

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    doc = json.loads(out, parse_constant=reject)
    residuals = {res["name"]: res["residual"] for res in doc["results"]}
    assert residuals["vanhecke"] is residuals["sato1"] is residuals["sato2"] is None
    _, out, _ = run(capsys, "check", str(path), "vanhecke")
    assert "residual nan" in out


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


@pytest.mark.parametrize("mode", ["jacobi", "complex-jacobi"])
def test_reconstruct_of_a_model_near_the_float_range(tmp_path, capsys, mode):
    # the oracle's answers for 4e307 * A overflow at that scale; reconstructed
    # at scale 2^-e, the written tensor is 4e307 times that of A, all finite
    path, big, out_path = tmp_path / "fs.json", tmp_path / "fs-big.json", tmp_path / "rec.json"
    run(capsys, "build", "fubini-study", "--m", "4", "--out", str(path))
    model = load_model(str(path)).model
    curvlab.save_model(curvlab.ComplexModel(model.structure, 4e307 * model.tensor), str(big))
    proc = run_subprocess("reconstruct", str(big), "--mode", mode, "--out", str(out_path))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    rec = load_model(str(out_path)).model.tensor.entries
    expected = 4e307 * model.tensor.entries
    assert np.all(np.isfinite(rec))
    assert np.max(np.abs(rec - expected)) <= 1e-15 * np.max(np.abs(expected))


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


def test_subspace_dim_rejects_structure_of_other_dimension(tmp_path, capsys):
    # a 4 x 4 J at --m 6 once crashed in an einsum with exit 1
    j4 = tmp_path / "j4.json"
    j4.write_text(json.dumps({"J": np.kron(np.eye(2), [[0.0, -1.0], [1.0, 0.0]]).tolist()}))
    for constraints in ("a1", ""):
        code, _, err = run(capsys, "subspace-dim", "--m", "6", "--j", str(j4), "--constraints", constraints)
        assert code == 2
        assert err.startswith("error:") and "m=6" in err


def test_subspace_dim_of_structure_valid_at_loose_tolerance(tmp_path, capsys):
    # J0 moved by a 1e-6 skew matrix passes validation only at --tol 1e-4; the
    # unitary J it stands for has a 36-dimensional a1 at m = 6.  A rank
    # threshold of 1e-8 times the largest singular value once counted the
    # perturbation as rank and printed 0
    skew = np.random.default_rng(6).standard_normal((6, 6))
    skew = (skew - skew.T) / np.max(np.abs(skew - skew.T))
    j = tmp_path / "j6.json"
    j.write_text(json.dumps({"J": (np.kron(np.eye(3), [[0.0, -1.0], [1.0, 0.0]]) + 1e-6 * skew).tolist()}))
    code, _, err = run(capsys, "subspace-dim", "--m", "6", "--j", str(j), "--constraints", "a1")
    assert code == 2 and err.startswith("error:")
    code, out, _ = run(capsys, "--tol", "1e-4", "subspace-dim", "--m", "6", "--j", str(j), "--constraints", "a1")
    assert code == 0
    assert out.strip().splitlines()[-2].strip() == "36"


def test_diff_of_models_of_different_dimension_is_usage_error(tmp_path, capsys):
    fs6, a4 = tmp_path / "fs6.json", tmp_path / "a4.json"
    run(capsys, "build", "fubini-study", "--m", "6", "--out", str(fs6))
    run(capsys, "build", "a0", "--m", "4", "--out", str(a4))
    proc = run_subprocess("diff", str(fs6), str(a4))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "dimensional" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_out_of_memory_is_usage_error(monkeypatch, capsys):
    # exit 1 would read as a failed check
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("curvlab.cli.subspace_dimension", exhausted)
    code, _, err = run(capsys, "subspace-dim", "--m", "12", "--constraints", "a1,a2,a3,a2perp")
    assert code == 2
    assert err.startswith("error:") and "m = 12" in err


def test_tolerance_env_override(monkeypatch):
    from curvlab.cli import build_parser

    monkeypatch.setenv("CURVLAB_TOL", "1e-6")
    args = build_parser().parse_args(["subspace-dim", "--m", "4"])
    assert args.tol == 1e-6


def test_tolerance_env_read_on_every_call(tmp_path, monkeypatch, capsys):
    # main reuses one parser per process, yet each call sees the current CURVLAB_TOL
    path = tmp_path / "a0.json"
    run(capsys, "build", "a0", "--m", "4", "--out", str(path))
    tols = []

    def spy(name, model, tol):
        tols.append(tol)
        return CHECKS[name](model, tol)

    monkeypatch.setattr("curvlab.cli.run_check", spy)
    monkeypatch.setenv("CURVLAB_TOL", "1e-6")
    assert run(capsys, "check", str(path), "symmetries")[0] == 0
    monkeypatch.setenv("CURVLAB_TOL", "1e-7")
    assert run(capsys, "check", str(path), "symmetries")[0] == 0
    monkeypatch.delenv("CURVLAB_TOL")
    assert run(capsys, "check", str(path), "symmetries")[0] == 0
    assert tols == [1e-6, 1e-7, 1e-10]
    monkeypatch.setenv("CURVLAB_TOL", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["check", str(path), "symmetries"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_sparse_storage_build(tmp_path, capsys):
    path = tmp_path / "a0s.json"
    code, _, _ = run(capsys, "build", "a0", "--m", "4", "--storage", "sparse", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["A"]["storage"] == "sparse"
    loaded = load_model(path)
    np.testing.assert_allclose(loaded.model.tensor.entries, build_A0(4).entries, atol=1e-14)


@pytest.mark.parametrize("kind", ["a0", "random"])
@pytest.mark.parametrize("flag", ["--theta-out", "--pullback-out"])
def test_twistor_only_outputs_reject_other_kinds(tmp_path, capsys, kind, flag):
    out_flags = ["--out", str(tmp_path / "model.json"), flag, str(tmp_path / "extra.json")]
    code, out, err = run(capsys, "build", kind, "--m", "4", *out_flags)
    assert code == 2
    assert err.startswith("error: ") and flag in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_model_gallery_script(tmp_path, monkeypatch, capsys):
    # the gallery drives build, check, reconstruct, diff and spectra through
    # the CLI and exits with a message on the first command that does not return 0
    script = Path(__file__).resolve().parents[1] / "scripts" / "model_gallery.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--dir", str(tmp_path), "--m", "4"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    assert (tmp_path / "twistor_pullback.json").exists()
    assert (tmp_path / "fubini_study_from_complex_jacobi.json").exists()


def test_discrepancy_audit_script(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "discrepancy_audit.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--m", "4", "--json"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    report = json.loads(capsys.readouterr().out)
    audit = load_repo_module("scripts/discrepancy_audit.py").discrepancy_audit
    assert report == json.loads(json.dumps(audit(4, seed=0)))
    assert not report["jacobi_K_coefficient"]["agrees"]
