"""Command-line front end: build models, run identity checks, report spectra,
reconstruct tensors from Jacobi data, diff models through an isometry, and
compute constrained subspace dimensions.

Exit codes: 0 every requested check holds, 1 a check failed, 2 input or usage
error.  All randomness is seeded, so reports are deterministic given the input
file, --seed and --tol.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .constructions import (
    ComplexJacobiOracle,
    JacobiOracle,
    counterexample_model,
    jacobi_equivalence_check,
    reconstruct_from_complex_jacobi,
    reconstruct_from_jacobi,
    twistor_point_model,
)
from .errors import CurvlabError, InvalidVectorError, NotCompatibleError, QNotConstantError, QNotZeroError
from .identities import (
    check_compatibility,
    check_gray_yano,
    check_sato,
    check_vanhecke,
    gray_classify,
    lemma23_battery,
    subspace_dimension,
)
from .modelio import load_matrix, load_model, save_model
from .operators import complex_jacobi, jacobi, merged_spectrum
from .spaces import DEFAULT_TOL, complex_line, spanning_lines, standard_complex_structure
from .tensors import (
    ComplexModel,
    build_A0,
    build_APhi,
    pullback,
    random_curvature_tensor,
    symmetry_residuals,
)

IDENTITY_NAMES = (
    "symmetries",
    "compatibility",
    "vanhecke",
    "sato1",
    "sato2",
    "lemma23",
    "gray-classify",
    "gray-yano",
)

BUILD_KINDS = ("a0", "fubini-study", "counterexample", "twistor", "random")


def _default_tol() -> float:
    return float(os.environ.get("CURVLAB_TOL", DEFAULT_TOL))


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _result(name: str, holds: bool, residual: float, witness) -> dict:
    return {
        "name": name,
        "holds": bool(holds),
        "residual": float(residual),
        "witness": _jsonable(witness),
    }


def _emit(report: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
        return
    print(report["command"])
    for res in report.get("results", ()):
        mark = "pass" if res["holds"] else "FAIL"
        print(f"  {res['name']:<18} {mark}  residual {res['residual']:.3e}")
        if not res["holds"] and res.get("witness"):
            print(f"    witness: {res['witness']}")
    for line in report.get("lines", ()):
        print(line)
    print(f"status {report['status']}")


def _run_identity(name: str, model: ComplexModel, tol: float, seed: int, samples: int) -> dict:
    if name == "symmetries":
        residuals = symmetry_residuals(model.tensor.entries)
        worst_name = max(residuals, key=lambda k: residuals[k][0])
        worst, quad = residuals[worst_name]
        scale = 1.0 + model.tensor.max_abs()
        return _result("symmetries", worst / scale <= tol, worst / scale, (worst_name,) + quad)
    if name == "compatibility":
        rep = check_compatibility(model, "all", tol)
        return _result(rep.name, rep.holds, rep.worst_residual, rep.witness)
    if name == "vanhecke":
        try:
            rep = check_vanhecke(model, trials=samples, seed=seed, tol=tol)
        except NotCompatibleError as exc:
            return _result("vanhecke", False, float("nan"), ("precondition", str(exc)))
        return _result(rep.name, rep.holds, rep.worst_residual, rep.witness)
    if name in ("sato1", "sato2"):
        variant = 1 if name == "sato1" else 2
        try:
            rep = check_sato(model, variant, tol=tol)
        except (NotCompatibleError, QNotConstantError, QNotZeroError) as exc:
            return _result(name, False, float("nan"), ("precondition", str(exc)))
        return _result(rep.name, rep.holds, rep.worst_residual, rep.witness)
    if name == "lemma23":
        rep = lemma23_battery(model, tol)
        return _result(rep.name, rep.holds, rep.worst_residual, rep.witness)
    if name == "gray-classify":
        cls = gray_classify(model, tol)
        witness = [
            ["a1", cls.in_a1],
            ["a2", cls.in_a2],
            ["a3", cls.in_a3],
            ["a2perp", cls.in_a2perp],
        ]
        return _result("gray-classify", cls.in_a3, cls.residuals["a3"], witness)
    if name == "gray-yano":
        rep = check_gray_yano(model.tensor, model.structure, tol)
        return _result(rep.name, rep.holds, rep.worst_residual, rep.witness)
    raise CurvlabError(f"unknown identity {name!r}; known: {', '.join(IDENTITY_NAMES)}")


def _cmd_build(args) -> dict:
    m = args.m
    seed = args.seed
    metadata = {"kind": args.kind, "dim": m, "seed": seed}
    theta = None
    pulled = None
    if args.kind == "a0":
        model = ComplexModel(standard_complex_structure(m), build_A0(m))
    elif args.kind == "fubini-study":
        structure = standard_complex_structure(m)
        model = ComplexModel(structure, build_A0(m) + build_APhi(structure))
    elif args.kind == "counterexample":
        model = counterexample_model(m)
    elif args.kind == "twistor":
        model, theta = twistor_point_model(m)
        pulled = ComplexModel(model.structure, pullback(theta, model.tensor))
    elif args.kind == "random":
        model = ComplexModel(standard_complex_structure(m), random_curvature_tensor(m, seed))
    else:
        raise CurvlabError(f"unknown build kind {args.kind!r}")
    save_model(model, args.out, storage=args.storage, metadata=metadata)
    lines = [f"wrote {args.out}"]
    if args.theta_out and theta is not None:
        from .modelio import save_matrix

        save_matrix(theta.matrix, args.theta_out)
        lines.append(f"wrote {args.theta_out}")
    if args.pullback_out and pulled is not None:
        save_model(pulled, args.pullback_out, storage=args.storage, metadata={**metadata, "kind": "twistor-pullback"})
        lines.append(f"wrote {args.pullback_out}")
    return {
        "command": f"build {args.kind} --m {m} --seed {seed}",
        "results": [_result("build", True, 0.0, ())],
        "lines": lines,
        "status": 0,
    }


def _cmd_check(args) -> dict:
    loaded = load_model(args.model, tol=args.tol)
    results = [
        _run_identity(name, loaded.model, args.tol, args.seed, args.samples)
        for name in args.identities
    ]
    status = 0 if all(r["holds"] for r in results) else 1
    return {
        "command": f"check {args.model} " + " ".join(args.identities),
        "results": results,
        "status": status,
    }


def _unit_vector(text: str) -> np.ndarray:
    """Parse a comma-separated vector and normalize it; reject what spans no line."""
    try:
        vec = np.asarray([float(t) for t in text.split(",")], dtype=float)
    except ValueError:
        raise InvalidVectorError(
            f"--at expects \"sweep\" or comma-separated numbers, got {text!r}"
        ) from None
    if not np.all(np.isfinite(vec)):
        raise InvalidVectorError(f"--at vector {text!r} has a non-finite entry")
    scale = float(np.max(np.abs(vec)))
    if scale == 0.0:
        raise InvalidVectorError(f"--at vector {text!r} is zero and spans no line")
    vec = vec / scale  # keeps the norm below from overflowing
    return vec / np.linalg.norm(vec)


def _cmd_spectra(args) -> dict:
    loaded = load_model(args.model, tol=args.tol)
    model = loaded.model
    spectra = []
    lines_out = []
    if args.at == "sweep":
        for index, line in enumerate(spanning_lines(model.structure)):
            spec = merged_spectrum(complex_jacobi(model.tensor, model.structure, line))
            spectra.append(
                {
                    "line": index,
                    "representative": line.representative.tolist(),
                    "eigenvalues": [[v, mult] for v, mult in spec],
                }
            )
            pretty = ", ".join(f"{v:.6g} (x{mult})" for v, mult in spec)
            lines_out.append(f"  line {index:>3}: {pretty}")
    else:
        vec = _unit_vector(args.at)
        spec = merged_spectrum(jacobi(model.tensor, vec))
        spectra.append({"vector": vec.tolist(), "eigenvalues": [[v, mult] for v, mult in spec]})
        lines_out.append("  jacobi: " + ", ".join(f"{v:.6g} (x{mult})" for v, mult in spec))
        line = complex_line(vec, model.structure)
        spec = merged_spectrum(complex_jacobi(model.tensor, model.structure, line))
        spectra.append(
            {"line_of_vector": vec.tolist(), "eigenvalues": [[v, mult] for v, mult in spec]}
        )
        lines_out.append("  complex jacobi: " + ", ".join(f"{v:.6g} (x{mult})" for v, mult in spec))
    return {
        "command": f"spectra {args.model} --at {args.at}",
        "results": [_result("spectra", True, 0.0, ())],
        "spectra": spectra,
        "lines": lines_out,
        "status": 0,
    }


def _cmd_reconstruct(args) -> dict:
    loaded = load_model(args.model, tol=args.tol)
    model = loaded.model
    if args.mode == "jacobi":
        oracle = JacobiOracle.from_tensor(model.tensor)
        recon = reconstruct_from_jacobi(oracle)
    else:
        oracle = ComplexJacobiOracle.from_model(model)
        recon = reconstruct_from_complex_jacobi(oracle)
    diff = recon - model.tensor
    rel = diff.norm() / (1.0 + model.tensor.norm())
    out_model = ComplexModel(model.structure, recon)
    save_model(out_model, args.out, metadata={"kind": f"reconstructed-{args.mode}", "source": args.model})
    return {
        "command": f"reconstruct {args.model} --mode {args.mode}",
        "results": [_result(f"reconstruct-{args.mode}", rel <= 1e-8, rel, ())],
        "lines": [f"wrote {args.out}", f"round-trip relative error {rel:.3e}"],
        "status": 0 if rel <= 1e-8 else 1,
    }


def _cmd_diff(args) -> dict:
    loaded_a = load_model(args.model_a, tol=args.tol)
    loaded_b = load_model(args.model_b, tol=args.tol)
    if args.theta:
        theta = load_matrix(args.theta)
    else:
        theta = np.eye(loaded_a.model.dim)
    rep = jacobi_equivalence_check(loaded_a.model, loaded_b.model, theta, tol=args.tol)
    det = dict(rep.details)
    lines = [
        f"  |A1 - theta*A2| = {det['difference_norm']:.6g}",
        f"  complex-Jacobi-equivalent: {'yes' if rep.holds else 'no'}",
        f"  tensors equal: {'yes' if det['tensors_equal'] else 'no'}",
        f"  eight-term identity: model A {'yes' if det['gray_yano_a'] else 'no'}, "
        f"model B {'yes' if det['gray_yano_b'] else 'no'}",
    ]
    results = [
        _result("jacobi-equivalence", rep.holds, rep.worst_residual, rep.witness),
        _result("tensors-equal", det["tensors_equal"], det["difference_norm"], ()),
    ]
    return {
        "command": f"diff {args.model_a} {args.model_b}",
        "results": results,
        "lines": lines,
        "status": 0 if rep.holds else 1,
    }


def _cmd_subspace_dim(args) -> dict:
    if args.j == "standard":
        structure = standard_complex_structure(args.m)
    else:
        from .spaces import validate_complex_structure

        structure = validate_complex_structure(load_matrix(args.j, key="J"), tol=args.tol)
    tags = [t for t in args.constraints.split(",") if t] if args.constraints else []
    dim = subspace_dimension(tags, args.m, structure)
    return {
        "command": f"subspace-dim --m {args.m} --constraints {args.constraints or ''}",
        "results": [_result("dimension", True, 0.0, (dim,))],
        "lines": [str(dim)],
        "status": 0,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvlab",
        description="Build, check, and compare algebraic curvature models with complex structure.",
    )
    parser.add_argument("--tol", type=float, default=_default_tol(), help="residual tolerance")
    parser.add_argument("--seed", type=int, default=0, help="seed for random spot checks")
    parser.add_argument(
        "--samples", type=int, default=0, help="extra random spot checks beyond the certifying sets"
    )
    parser.add_argument("--output", choices=("text", "json"), default="text")
    # The same flags are accepted after the subcommand; SUPPRESS keeps an unset
    # subcommand flag from clobbering a value parsed before the subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    common.add_argument("--output", choices=("text", "json"), default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="write a model file", parents=[common])
    p.add_argument("kind", choices=BUILD_KINDS)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--storage", choices=("dense", "sparse"), default="dense")
    p.add_argument("--theta-out", default=None, help="twistor only: write the isometry matrix")
    p.add_argument("--pullback-out", default=None, help="twistor only: write the pulled-back model")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("check", help="run identity checks on a model file", parents=[common])
    p.add_argument("model")
    p.add_argument("identities", nargs="+", metavar="identity")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("spectra", help="report operator spectra", parents=[common])
    p.add_argument("model")
    p.add_argument("--at", default="sweep", help='"sweep" or a comma-separated vector')
    p.set_defaults(func=_cmd_spectra)

    p = sub.add_parser("reconstruct", help="reconstruct the tensor from its own Jacobi data", parents=[common])
    p.add_argument("model")
    p.add_argument("--mode", choices=("jacobi", "complex-jacobi"), default="jacobi")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("diff", help="compare two models through a complex isometry", parents=[common])
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--theta", default=None, help="JSON file holding the isometry matrix")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("subspace-dim", help="dimension of a constrained subspace", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j", default="standard", help='"standard" or a JSON file with key "J"')
    p.add_argument("--constraints", default="", help="comma-separated constraint tags")
    p.set_defaults(func=_cmd_subspace_dim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in getattr(args, "identities", ()):
        if name not in IDENTITY_NAMES:
            print(f"error: unknown identity {name!r}; known: {', '.join(IDENTITY_NAMES)}", file=sys.stderr)
            return 2
    try:
        report = args.func(args)
    except CurvlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.output)
    return int(report["status"])


if __name__ == "__main__":
    raise SystemExit(main())
