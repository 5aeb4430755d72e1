#!/usr/bin/env python3
"""Build the canonical model files and run the headline checks on each.

Writes a0, fubini-study, counterexample and twistor models (plus the twistor
isometry and its pullback) into a directory, then replays the checks that
characterize them through the CLI entry points, stopping at the first failure.
The Kaehler model is also rebuilt from its Jacobi and from its complex Jacobi
operators, and each reconstruction is written next to it.

Usage: python3 scripts/model_gallery.py [--dir gallery] [--m 4]
"""

import argparse
from pathlib import Path

from curvlab.cli import main as cli


def run(*argv) -> None:
    code = cli(list(argv))
    if code != 0:
        raise SystemExit(f"command failed ({code}): {' '.join(argv)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default="gallery")
    parser.add_argument("--m", type=int, default=4, help="dimension, a multiple of 4")
    args = parser.parse_args()
    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    m = str(args.m)

    run("build", "a0", "--m", m, "--out", str(out / "a0.json"))
    run("build", "fubini-study", "--m", m, "--out", str(out / "fubini_study.json"))
    run("build", "counterexample", "--m", m, "--out", str(out / "counterexample.json"))
    run(
        "build", "twistor", "--m", m,
        "--out", str(out / "twistor.json"),
        "--theta-out", str(out / "twistor_theta.json"),
        "--pullback-out", str(out / "twistor_pullback.json"),
    )

    print("\n-- constant curvature model: compatible, fails the vanishing battery --")
    run("check", str(out / "a0.json"), "symmetries", "compatibility")
    print("\n-- Kaehler model: every identity in the book --")
    run(
        "check", str(out / "fubini_study.json"),
        "compatibility", "vanhecke", "sato1", "gray-classify", "gray-yano",
    )
    print("\n-- Kaehler model: recovered from its Jacobi and from its complex Jacobi operators --")
    for mode in ("jacobi", "complex-jacobi"):
        run("reconstruct", str(out / "fubini_study.json"), "--mode", mode,
            "--out", str(out / f"fubini_study_from_{mode.replace('-', '_')}.json"))
    print("\n-- quaternionic model: nonzero tensor, vanishing complex Jacobi data --")
    run("check", str(out / "counterexample.json"), "lemma23", "sato2")
    print("\n-- twistor model: isometry moves the tensor but not the line data --")
    run("diff", str(out / "twistor.json"), str(out / "twistor.json"),
        "--theta", str(out / "twistor_theta.json"))
    print("\n-- spectra sweep over the spanning lines --")
    run("spectra", str(out / "twistor.json"))
    print(f"\ngallery written to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
