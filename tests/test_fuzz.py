"""The exit-code contract under malformed input.

Valid m = 4 model files are mutated (keys dropped, values of another type,
values nested deeper, numbers replaced by huge, infinite or NaN ones) and
``curvlab check`` runs twice on each in process, where the second run of a
valid file gets the cached model; ``--at`` strings go to ``curvlab spectra``.
Every run must end with exit 0, 1 or 2 and let no exception escape, and the
two runs of one file must agree.  RuntimeWarnings fail too (see
pyproject.toml), so a warning printed on the way to a clean exit counts as an
escape.
"""

import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import ComplexModel, build_A0, build_APhi, save_model, standard_complex_structure
from curvlab.cli import main
from curvlab.identities import CHECKS

_J4 = standard_complex_structure(4)
_FS4 = ComplexModel(_J4, build_A0(4) + build_APhi(_J4))


def _base_docs(tmp_dir):
    docs = []
    for storage in ("dense", "sparse"):
        path = tmp_dir / f"fs4-{storage}.json"
        save_model(_FS4, path, storage=storage, metadata={"kind": "fubini-study"})
        docs.append(json.loads(path.read_text()))
    return docs


_NUMBERS = st.sampled_from(
    [1e300, -1e308, 1.7976931348623157e308, float("inf"), float("-inf"), float("nan"), 1e-320, 10**400, -1, 0]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated_text(draw, docs):
    """JSON text of a base document after one to three random mutations.

    A nesting ends the mutations: 3000 brackets are more than json.dumps can
    write, so the nested value is spliced into the text.
    """
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "type", "nest", "number"]))
        parent, key, node = None, None, doc
        # numbers go to a leaf; the other mutations may stop at any level
        while isinstance(node, (dict, list)) and node and (kind == "number" or draw(st.booleans())):
            parent, key = node, draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        if kind == "nest":
            depth = draw(st.sampled_from([1, 2, 40, 3000]))
            nested = "[" * depth + json.dumps(node) + "]" * depth
            if parent is None:
                return nested
            parent[key] = _PLACEHOLDER
            return json.dumps(doc).replace(json.dumps(_PLACEHOLDER), nested)
        if parent is None:
            continue
        if kind == "drop":
            del parent[key]
        elif kind == "type":
            parent[key] = draw(_JSON)
        else:
            parent[key] = draw(_NUMBERS)
    return json.dumps(doc)


_PLACEHOLDER = "\u0000nested\u0000"


def _run(argv) -> tuple[int, str]:
    """(exit code, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects usage with exit 2
            code = exc.code
    return code, out.getvalue()


def test_mutated_model_files_keep_the_exit_code_contract(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("fuzz")
    path = tmp_dir / "model.json"

    @settings(max_examples=150)
    @given(_mutated_text(_base_docs(tmp_dir)))
    def run(text):
        path.write_text(text)
        # the second run loads the same bytes again: a cached model must
        # give what the first parse gave
        first, second = (_run(["check", str(path), *CHECKS]) for _ in range(2))
        assert first[0] in (0, 1, 2)
        assert second == first

    run()


def test_at_strings_keep_the_exit_code_contract(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "fs4.json"
    save_model(_FS4, path)
    numbers = st.sampled_from(["0", "1", "-2.5", "1e308", "-1e308", "1e-320", "inf", "nan", "1e400", "x", ""])
    at_strings = st.lists(numbers, min_size=1, max_size=6).map(",".join) | st.text(max_size=12)

    @settings(max_examples=100)
    @given(at_strings)
    def run(at):
        assert _run(["spectra", str(path), f"--at={at}"])[0] in (0, 1, 2)

    run()
