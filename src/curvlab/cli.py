"""Command-line front end: build models, run identity checks, report spectra,
reconstruct tensors from Jacobi data, diff models through an isometry, and
compute constrained subspace dimensions.

Exit codes: 0 every requested check holds, 1 a check failed, 2 input or usage
error or a closed standard output.  Every check evaluates its certifying set
exactly, so reports are deterministic given the input file and --tol; --seed
seeds ``build random`` alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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
from .errors import CurvlabError, InvalidVectorError
from .identities import CHECKS, IdentityReport, run_check, subspace_dimension
from .modelio import load_matrix, load_model, save_matrix, save_model
from .operators import complex_jacobi, jacobi, merged_spectrum
from .spaces import DEFAULT_TOL, complex_line, spanning_lines, standard_complex_structure, validate_complex_structure
from .tensors import (
    AlgebraicCurvatureTensor,
    ComplexModel,
    build_A0,
    build_APhi,
    pullback,
    random_curvature_tensor,
)

BUILD_KINDS = ("a0", "fubini-study", "counterexample", "twistor", "random")


def _emit(command: str, reports: list[IdentityReport], status: int, extra: dict, output: str) -> None:
    """Print what a command returned, as text or JSON.

    Each ``_cmd_*`` returns ``(command, reports, status, extra)``: the command
    line, its reports, the exit code and the further JSON entries, ``lines``
    (printed as text too) and ``spectra``.
    """
    results = [report.to_json() for report in reports]
    if output == "json":
        doc = {"command": command, "results": results, "status": status, **extra}
        # one line: any indent sends json through its pure-Python encoder
        print(json.dumps(doc, sort_keys=True, allow_nan=False))
        return
    print(command)
    for report, res in zip(reports, results):
        mark = "pass" if report.holds else "FAIL"
        print(f"  {report.name:<18} {mark}  residual {report.worst_residual:.3e}")
        if not report.holds and res["witness"]:
            print(f"    witness: {res['witness']}")
    for line in extra.get("lines", ()):
        print(line)
    print(f"status {status}")


def _done(name: str, args, witness: tuple = ()) -> IdentityReport:
    """The report of a command that computes rather than checks: it always holds."""
    return IdentityReport(name, True, 0.0, witness, args.tol)


def _cmd_build(args):
    m = args.m
    seed = args.seed
    if args.kind != "twistor" and (args.theta_out or args.pullback_out):
        raise CurvlabError(f"--theta-out and --pullback-out apply to twistor models only, not {args.kind!r}")
    metadata = {"kind": args.kind, "dim": m, "seed": seed}
    if args.kind == "a0":
        model = ComplexModel(standard_complex_structure(m), build_A0(m))
    elif args.kind == "fubini-study":
        structure = standard_complex_structure(m)
        model = ComplexModel(structure, build_A0(m) + build_APhi(structure))
    elif args.kind == "counterexample":
        model = counterexample_model(m)
    elif args.kind == "twistor":
        model, theta = twistor_point_model(m)
    elif args.kind == "random":
        model = ComplexModel(standard_complex_structure(m), random_curvature_tensor(m, seed))
    else:
        raise CurvlabError(f"unknown build kind {args.kind!r}")
    save_model(model, args.out, storage=args.storage, metadata=metadata)
    lines = [f"wrote {args.out}"]
    if args.theta_out:
        save_matrix(theta.matrix, args.theta_out)
        lines.append(f"wrote {args.theta_out}")
    if args.pullback_out:
        pulled = ComplexModel(model.structure, pullback(theta, model.tensor))
        save_model(pulled, args.pullback_out, storage=args.storage, metadata={**metadata, "kind": "twistor-pullback"})
        lines.append(f"wrote {args.pullback_out}")
    return f"build {args.kind} --m {m} --seed {seed}", [_done("build", args)], 0, {"lines": lines}


def _cmd_check(args):
    loaded = load_model(args.model, tol=args.tol)
    reports = [run_check(name, loaded.model, args.tol) for name in args.identities]
    status = 0 if all(r.holds for r in reports) else 1
    return f"check {args.model} " + " ".join(args.identities), reports, status, {}


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


def _cmd_spectra(args):
    loaded = load_model(args.model, tol=args.tol)
    model = loaded.model
    # eigenvalues merge within tol relative to the tensor's largest entry, so
    # the spectra of c A group as those of A do, and a vanishing operator
    # reads as zero
    scale = float(np.max(np.abs(model.tensor.entries)))
    spectra = []
    lines_out = []
    if args.at == "sweep":
        lines = spanning_lines(model.structure)
        ops = complex_jacobi(model.tensor, model.structure, lines)
        for index, (line, op) in enumerate(zip(lines, ops)):
            spec = merged_spectrum(op, scale=scale)
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
        spec = merged_spectrum(jacobi(model.tensor, vec), scale=scale)
        spectra.append({"vector": vec.tolist(), "eigenvalues": [[v, mult] for v, mult in spec]})
        lines_out.append("  jacobi: " + ", ".join(f"{v:.6g} (x{mult})" for v, mult in spec))
        line = complex_line(vec, model.structure)
        spec = merged_spectrum(complex_jacobi(model.tensor, model.structure, line), scale=scale)
        spectra.append(
            {"line_of_vector": vec.tolist(), "eigenvalues": [[v, mult] for v, mult in spec]}
        )
        lines_out.append("  complex jacobi: " + ", ".join(f"{v:.6g} (x{mult})" for v, mult in spec))
    extra = {"spectra": spectra, "lines": lines_out}
    return f"spectra {args.model} --at {args.at}", [_done("spectra", args)], 0, extra


def _cmd_reconstruct(args):
    model = load_model(args.model, tol=args.tol).model
    # work at scale 2^-e, for the least e with max|A| < 2^e: a power of two
    # changes no digit, and a model near the float range does not overflow
    _, e = math.frexp(float(np.max(np.abs(model.tensor.entries))))
    scaled = ComplexModel(model.structure, AlgebraicCurvatureTensor(np.ldexp(model.tensor.entries, -e)))
    if args.mode == "jacobi":
        recon = reconstruct_from_jacobi(JacobiOracle.from_tensor(scaled.tensor))
    else:
        recon = reconstruct_from_complex_jacobi(ComplexJacobiOracle.from_model(scaled))
    rel = (recon - scaled.tensor).norm() / (1.0 + scaled.tensor.norm())
    out_model = ComplexModel(model.structure, AlgebraicCurvatureTensor(np.ldexp(recon.entries, e)))
    save_model(out_model, args.out, metadata={"kind": f"reconstructed-{args.mode}", "source": args.model})
    report = IdentityReport(f"reconstruct-{args.mode}", bool(rel <= 1e-8), rel, (), 1e-8)
    lines = [f"wrote {args.out}", f"round-trip relative error {rel:.3e}"]
    return f"reconstruct {args.model} --mode {args.mode}", [report], int(not report.holds), {"lines": lines}


def _cmd_diff(args):
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
    equal = IdentityReport("tensors-equal", det["tensors_equal"], det["difference_norm"], (), args.tol)
    # the exit code follows jacobi-equivalence alone; tensors-equal is reported alongside
    return f"diff {args.model_a} {args.model_b}", [rep, equal], int(not rep.holds), {"lines": lines}


def _cmd_subspace_dim(args):
    if args.j == "standard":
        structure = standard_complex_structure(args.m)
    else:
        structure = validate_complex_structure(load_matrix(args.j, key="J"), tol=args.tol)
    tags = [t for t in args.constraints.split(",") if t] if args.constraints else []
    dim = subspace_dimension(tags, args.m, structure)
    command = f"subspace-dim --m {args.m} --constraints {args.constraints or ''}"
    return command, [_done("dimension", args, (dim,))], 0, {"lines": [str(dim)]}


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def positive_finite_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


def _env_tol():
    # argparse passes a string default, here CURVLAB_TOL, through the type check
    return os.environ.get("CURVLAB_TOL", DEFAULT_TOL)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvlab",
        description="Build, check, and compare algebraic curvature models with complex structure.",
    )
    parser.add_argument(
        "--tol", type=positive_finite_float, default=_env_tol(),
        help=f"residual tolerance (default: $CURVLAB_TOL, else {DEFAULT_TOL:g})",
    )
    parser.add_argument("--seed", type=non_negative_int, default=0, help="seed of build random")
    parser.add_argument("--output", choices=("text", "json"), default="text")
    # The same flags are accepted after the subcommand; SUPPRESS keeps an unset
    # subcommand flag from clobbering a value parsed before the subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=positive_finite_float, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=non_negative_int, default=argparse.SUPPRESS)
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


@functools.lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of this process; building one costs more than most checks."""
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    parser.set_defaults(tol=_env_tol())  # CURVLAB_TOL is read on every call
    args = parser.parse_args(argv)
    for name in getattr(args, "identities", ()):
        if name not in CHECKS:
            print(f"error: unknown identity {name!r}; known: {', '.join(CHECKS)}", file=sys.stderr)
            return 2
    try:
        command, reports, status, extra = args.func(args)
    except (CurvlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        at = f" at m = {args.m}" if hasattr(args, "m") else ""
        print(f"error: {args.cmd} ran out of memory{at}", file=sys.stderr)
        return 2
    try:
        _emit(command, reports, status, extra, args.output)
        sys.stdout.flush()
    except BrokenPipeError:  # no failed check; devnull keeps the flush at exit from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output is closed", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    raise SystemExit(main())
