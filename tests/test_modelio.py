import json

import numpy as np
import pytest

from curvlab import (
    ComplexModel,
    CurvlabError,
    SparseEntryConflictError,
    SymmetryViolationError,
    build_A0,
    build_APhi,
    load_model,
    random_curvature_tensor,
    save_model,
    standard_complex_structure,
)
from curvlab import modelio


@pytest.fixture
def fs_model():
    j = standard_complex_structure(4)
    return ComplexModel(j, build_A0(4) + build_APhi(j))


@pytest.fixture
def parses(monkeypatch):
    """The tensors validated by load_model: one per parse, none per cache hit."""
    calls = []
    real = modelio.validate_or_project

    def counting(raw, *args, **kwargs):
        calls.append(raw)
        return real(raw, *args, **kwargs)

    monkeypatch.setattr(modelio, "validate_or_project", counting)
    return calls


def test_dense_roundtrip_bit_exact(tmp_path, fs_model):
    path = tmp_path / "fs.json"
    save_model(fs_model, path, metadata={"kind": "fubini-study"})
    loaded = load_model(path)
    assert np.array_equal(loaded.model.tensor.entries, fs_model.tensor.entries)
    assert np.array_equal(loaded.model.structure.matrix, fs_model.structure.matrix)
    assert loaded.metadata["kind"] == "fubini-study"


def test_dense_roundtrip_random(tmp_path):
    j = standard_complex_structure(4)
    model = ComplexModel(j, random_curvature_tensor(4, seed=5))
    path = tmp_path / "r.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.model.tensor.entries, model.tensor.entries)


def test_sparse_roundtrip(tmp_path, fs_model):
    path = tmp_path / "fs_sparse.json"
    save_model(fs_model, path, storage="sparse")
    loaded = load_model(path)
    np.testing.assert_allclose(loaded.model.tensor.entries, fs_model.tensor.entries, atol=1e-14)


def test_sparse_hand_authoring(tmp_path):
    # A0 at m=2 is determined by the single orbit representative (0, 1, 1, 0) -> 1
    doc = {
        "dim": 2,
        "J": [[0.0, -1.0], [1.0, 0.0]],
        "A": {"storage": "sparse", "entries": [[0, 1, 1, 0, 1.0]]},
        "metadata": {},
    }
    path = tmp_path / "a0.json"
    path.write_text(json.dumps(doc))
    loaded = load_model(path)
    np.testing.assert_allclose(loaded.model.tensor.entries, build_A0(2).entries, atol=1e-14)


def test_sparse_orbit_conflict(tmp_path):
    # A(i,i,k,l) must vanish, so storing a nonzero value conflicts with its own orbit
    doc = {
        "dim": 2,
        "J": [[0.0, -1.0], [1.0, 0.0]],
        "A": {"storage": "sparse", "entries": [[0, 0, 0, 0, 1.0]]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SparseEntryConflictError):
        load_model(path)


def test_sparse_cross_entry_conflict(tmp_path):
    doc = {
        "dim": 2,
        "J": [[0.0, -1.0], [1.0, 0.0]],
        "A": {"storage": "sparse", "entries": [[0, 1, 1, 0, 1.0], [1, 0, 1, 0, 1.0]]},
    }
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SparseEntryConflictError):
        load_model(path)


def test_load_rejects_bianchi_violation(tmp_path, parses):
    # the orbit completion satisfies the sign symmetries but not the Bianchi
    # sum; a file that fails is not cached, so it is parsed and fails again
    entries = [[0, 1, 2, 3, 1.0], [0, 2, 1, 3, 1.0], [0, 3, 1, 2, 1.0]]
    doc = {
        "dim": 4,
        "J": standard_complex_structure(4).matrix.tolist(),
        "A": {"storage": "sparse", "entries": entries},
    }
    path = tmp_path / "bianchi.json"
    path.write_text(json.dumps(doc))
    for _ in range(2):
        with pytest.raises(SymmetryViolationError):
            load_model(path)
    assert len(parses) == 2


def test_load_rejects_invalid_structure(tmp_path, fs_model):
    path = tmp_path / "fs.json"
    save_model(fs_model, path)
    doc = json.loads(path.read_text())
    doc["J"] = np.eye(4).tolist()
    path.write_text(json.dumps(doc))
    with pytest.raises(CurvlabError):
        load_model(path)


def test_load_rejects_missing_keys(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    with pytest.raises(CurvlabError):
        load_model(path)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json at all{")
    with pytest.raises(CurvlabError):
        load_model(path)


def test_same_bytes_parse_once_and_share_the_model(tmp_path, fs_model, parses):
    doc = {
        "dim": 4,
        "J": fs_model.structure.matrix.tolist(),
        "A": {"storage": "dense", "entries": fs_model.tensor.entries.tolist()},
        "metadata": {"kind": "fubini-study", "tags": ["a", "b"]},
    }
    path = tmp_path / "fs.json"
    path.write_text(json.dumps(doc))
    first = load_model(path)
    first.metadata["kind"] = "changed"
    first.metadata["tags"].append("c")
    second = load_model(path)
    assert len(parses) == 1
    assert second.model is first.model
    # shared between callers, so nobody may write to it
    assert not second.model.tensor.entries.flags.writeable
    assert not second.model.structure.matrix.flags.writeable
    assert second.metadata == {"kind": "fubini-study", "tags": ["a", "b"]}


def test_rewritten_file_parses_again_and_same_bytes_elsewhere_hit(tmp_path, fs_model, parses):
    path, other = tmp_path / "model.json", tmp_path / "copy.json"
    save_model(fs_model, path)
    fs_bytes = path.read_bytes()
    first = load_model(path)
    save_model(ComplexModel(fs_model.structure, random_curvature_tensor(4, seed=5)), path)
    rewritten = load_model(path)
    assert len(parses) == 2 and rewritten.model is not first.model
    other.write_bytes(fs_bytes)
    assert load_model(other).model is first.model
    assert len(parses) == 2


def test_tolerance_is_part_of_the_key(tmp_path, fs_model, parses):
    path = tmp_path / "fs.json"
    save_model(fs_model, path)
    default, loose = load_model(path), load_model(path, tol=1e-6)
    assert len(parses) == 2 and default.model is not loose.model
    assert load_model(path).model is default.model
    assert load_model(path, tol=1e-6).model is loose.model
    assert len(parses) == 2


def test_ninth_file_evicts_the_first(tmp_path, fs_model, parses):
    paths = []
    for seed in range(9):
        paths.append(tmp_path / f"r{seed}.json")
        save_model(ComplexModel(fs_model.structure, random_curvature_tensor(4, seed=seed)), paths[-1])
    models = [load_model(path).model for path in paths]
    assert len(parses) == 9
    assert load_model(paths[-1]).model is models[-1]
    assert len(parses) == 9
    assert load_model(paths[0]).model is not models[0]
    assert len(parses) == 10
