"""Command-line front end.

Three subcommands:

* ``fslab verify --suite NAME`` — run a named identity suite (or ``all``)
  over seeded random inputs and emit a JSON report.
* ``fslab reduce`` — read a configuration tuple as JSON (stdin or ``--in``),
  reduce it to canonical form, and emit the isometry, the canonical tuple,
  and the residual.
* ``fslab estimate-norm --cocycle NAME`` — Monte Carlo sup-norm estimation
  with refinement, compared against the closed-form target.

Reports go to stdout as JSON (or to ``--out``); human-readable PASS/FAIL
lines go to stderr.  Exit code 0 means every check passed, 1 means a check
failed (including genericity rejections), 2 means a usage or parse error.
All randomness is derived from ``--seed``; identical invocations produce
identical reports up to the wall-time field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .crossratios import ConfigTuple, GenericityError, genericity
from .forms import ADMISSIBLE, TOL_REDUCE, make_space
from .norms import gromov_norm_bn, sup_problem
from .reduction import reduce_quadruple, reduce_quintuple, reduce_triple
from .report import CheckRecord, Report, complex_pairs
from .suites import SUITES, run_suite, tol_lookup

__all__ = ["main", "build_parser"]


def _parse_tol(items) -> dict[str, float]:
    out = {}
    for item in items or []:
        key, sep, val = item.partition("=")
        if not sep or not key:
            raise argparse.ArgumentTypeError(f"--tol expects KEY=VALUE, got {item!r}")
        try:
            out[key] = float(val)
        except ValueError:
            raise argparse.ArgumentTypeError(f"--tol {key}: {val!r} is not a number")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fslab",
        description="Verification lab for formed spaces, cross-ratios, "
                    "dilogarithm identities, and volume cocycles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, trials_default=None):
        p.add_argument("--seed", type=int, default=0, help="base random seed")
        p.add_argument("--trials", type=int, default=trials_default,
                       help="sample count (suite-specific default)")
        p.add_argument("--tol", action="append", metavar="KEY=VALUE",
                       help="override a check threshold (repeatable)")
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    pv = sub.add_parser("verify", help="run identity suites")
    pv.add_argument("--suite", default="all", choices=sorted(SUITES) + ["all"])
    pv.add_argument("--eps", type=int, default=1, choices=(1, -1),
                    help="form symmetry sign (+1 symmetric, -1 alternating)")
    pv.add_argument("--d", type=int, default=0, choices=(0, 1),
                    help="anisotropic middle dimension")
    pv.add_argument("--r", type=int, default=3, help="rank (number of hyperbolic planes)")
    common(pv)

    pr = sub.add_parser("reduce", help="reduce a configuration tuple to canonical form")
    pr.add_argument("--in", dest="infile", help="input JSON path (default: stdin)")
    pr.add_argument("--branch", type=int, default=1, choices=(1, -1),
                    help="square-root branch for the reduction")
    common(pr)

    pe = sub.add_parser("estimate-norm", help="Monte Carlo sup-norm estimation")
    pe.add_argument("--cocycle", required=True, choices=("vol-p1", "b4-so4", "b-n"))
    pe.add_argument("--n", type=int, default=4, help="flag dimension for b-n")
    common(pe, trials_default=None)

    return parser


def _emit(report: Report, out_path: str | None) -> None:
    text = report.to_json()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    failure = report.first_failure()
    if failure is not None:
        print(f"FIRST FAILURE: {failure.name} "
              f"(max residual {failure.max_residual:.3e} > {failure.threshold:.1e})",
              file=sys.stderr)


def _cmd_verify(args, parser) -> int:
    if (args.eps, args.d) not in ADMISSIBLE:
        parser.error(f"(eps, d) = ({args.eps}, {args.d}) is not admissible; "
                     f"choose from {sorted(ADMISSIBLE)}")
    if args.r < 2:
        parser.error("verify needs rank r >= 2")
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be >= 1")
    overrides = _parse_tol(args.tol)
    t0 = time.perf_counter()
    checks = run_suite(args.suite, eps=args.eps, d=args.d, r=args.r,
                       trials=args.trials, seed=args.seed, tol=tol_lookup(overrides))
    report = Report(
        command="verify",
        config={"suite": args.suite, "eps": args.eps, "d": args.d, "r": args.r,
                "trials": args.trials, "tol": overrides},
        seed=args.seed,
        checks=checks,
        wall_time_s=time.perf_counter() - t0,
    )
    _emit(report, args.out)
    return 0 if report.passed else 1


def _load_tuple(args, parser):
    try:
        if args.infile:
            with open(args.infile, encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read input tuple: {exc}")
    for key in ("epsilon", "d", "r", "points"):
        if key not in data:
            parser.error(f"input JSON is missing the {key!r} field")
    eps, d, r = data["epsilon"], data["d"], data["r"]
    if (eps, d) not in ADMISSIBLE:
        parser.error(f"(epsilon, d) = ({eps}, {d}) is not admissible")
    try:
        space = make_space(eps, d, r)
    except ValueError as exc:
        parser.error(str(exc))
    pts = data["points"]
    if not isinstance(pts, list) or len(pts) not in (3, 4, 5):
        parser.error(f"'points' must list 3, 4, or 5 vectors, got {len(pts)}")
    vectors = np.empty((len(pts), space.n), dtype=complex)
    for i, vec in enumerate(pts):
        if not isinstance(vec, list) or len(vec) != space.n:
            parser.error(f"points[{i}] must be a length-{space.n} vector of [re, im] pairs")
        for j, entry in enumerate(vec):
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(isinstance(x, (int, float)) for x in entry)):
                parser.error(f"points[{i}][{j}] must be an [re, im] pair")
            vectors[i, j] = complex(entry[0], entry[1])
    return space, vectors, {"epsilon": eps, "d": d, "r": r, "k": len(pts)}


def _cmd_reduce(args, parser) -> int:
    overrides = _parse_tol(args.tol)
    tol = tol_lookup(overrides)
    space, vectors, config = _load_tuple(args, parser)
    config["branch"] = args.branch
    config["tol"] = overrides
    t0 = time.perf_counter()
    report = Report(command="reduce", config=config, seed=args.seed)
    threshold = tol("reduce.residual", TOL_REDUCE)

    def reject(check: CheckRecord, exc: Exception, **extra) -> int:
        report.checks.append(check)
        report.extra = {"error": str(exc), **extra}
        report.wall_time_s = time.perf_counter() - t0
        _emit(report, args.out)
        return 1

    try:
        t = ConfigTuple.from_vectors(space, vectors)
        reducer = {3: reduce_triple, 4: reduce_quadruple, 5: reduce_quintuple}[t.k]
        result = reducer(t, branch=args.branch)
    except (GenericityError, ValueError) as exc:
        failing = getattr(exc, "failing", "input")
        return reject(CheckRecord(f"reduce.generic.{failing}", 1, float("inf"), threshold),
                      exc, failing=failing)
    except RuntimeError as exc:
        # A numerical failure on an input that passed its certificate,
        # reported as one failed reduction against a threshold of 0.
        return reject(CheckRecord("reduce.numerical", 1, 1.0, 0.0), exc)
    report.checks.append(CheckRecord("reduce.residual", 1, result.residual, threshold))
    cert = genericity(t)
    report.extra = {
        "g": complex_pairs(result.g.m),
        "canonical": complex_pairs(result.canonical.vectors),
        "residual": result.residual,
        "condition": result.condition,
        "ill_conditioned": result.ill_conditioned,
        "genericity_level": cert.level,
    }
    report.wall_time_s = time.perf_counter() - t0
    _emit(report, args.out)
    return 0 if report.passed else 1


def _cmd_estimate_norm(args, parser) -> int:
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be >= 1")
    if args.cocycle == "b-n" and args.n < 2:
        parser.error("--n must be >= 2 for b-n")
    overrides = _parse_tol(args.tol)
    tol = tol_lookup(overrides)
    trials = args.trials if args.trials is not None else 100_000
    prob = sup_problem(args.cocycle, n=args.n)
    t0 = time.perf_counter()
    estimate, argmax = prob.estimate(trials, args.seed)
    wall = time.perf_counter() - t0
    target = prob.target
    checks = [CheckRecord("sup.upper", trials, max(0.0, estimate - target),
                          tol("sup.upper", 1e-6))]
    if prob.target_is_sup:
        lower_default = 5e-3 if args.cocycle == "vol-p1" else 0.05
        checks.append(CheckRecord("sup.lower", trials, max(0.0, target - estimate),
                                  tol("sup.lower", lower_default)))
    report = Report(
        command="estimate-norm",
        config={"cocycle": args.cocycle, "n": args.n if args.cocycle == "b-n" else None,
                "trials": trials, "tol": overrides},
        seed=args.seed,
        checks=checks,
        extra={"estimate": estimate, "argmax": complex_pairs(argmax),
               "target": target, "ratio": estimate / target,
               "ambient_norm": gromov_norm_bn(4) if args.cocycle == "b4-so4" else None},
        wall_time_s=wall,
    )
    _emit(report, args.out)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentTypeError as exc:  # pragma: no cover - argparse wraps most
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    try:
        if args.command == "verify":
            return _cmd_verify(args, parser)
        if args.command == "reduce":
            return _cmd_reduce(args, parser)
        return _cmd_estimate_norm(args, parser)
    except argparse.ArgumentTypeError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
