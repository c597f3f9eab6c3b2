"""Named verification suites: each runs a family of identity checks over
seeded random inputs and returns :class:`~fslab.report.CheckRecord` rows.

Suites are keyed by name in :data:`SUITES`; every suite has the uniform
signature ``(eps, d, r, trials, seed, tol) -> list[CheckRecord]`` where
``tol(name, default)`` resolves per-check threshold overrides.  Passing
``trials=None`` picks the suite's default sample count.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ._seeding import normal_complex_batch, rng_for
from .crossratios import (
    pi3,
    pi4,
    perm4_identity_residuals,
    quint_identity_residuals,
    random_generic_tuple,
)
from .dilog import (
    BoundedFunction2,
    bloch_wigner,
    d3_infinity,
    dilog_symmetry_residuals,
    spence_abel_residual,
    v_max,
)
from .flags import (
    AffineFlag,
    b4_so4_batch,
    b_n,
    b_n_j,
    cocycle_residual,
    contributing_j,
    random_flag_tuple,
    standard_flags_so4,
    _so4_fixed,
)
from .forms import chordal_distance, make_space, random_group_element
from .norms import FamilyTag, bn_coefficient, dynkin_index, family_norm, gromov_norm_bn
from .reduction import (
    min_rank,
    phi3,
    phi4,
    reduce_quadruple,
    reduce_quintuple,
    reduce_triple,
)
from .report import CheckRecord

__all__ = ["SUITES", "SUITE_DEFAULT_TRIALS", "run_suite", "tol_lookup"]

Tol = Callable[[str, float], float]


def tol_lookup(overrides: dict[str, float] | None = None) -> Tol:
    """Threshold resolver: exact check name wins, else the default."""
    table = dict(overrides or {})

    def tol(name: str, default: float) -> float:
        return float(table.get(name, default))

    return tol


def _record(name: str, samples: int, worst: float, tol: Tol, default: float) -> CheckRecord:
    return CheckRecord(name, samples, float(worst), tol(name, default))


# ----------------------------------------------------------------------
# Cross-ratio identity suites
# ----------------------------------------------------------------------

def suite_cross_ratios(eps, d, r, trials, seed, tol) -> list[CheckRecord]:
    """The thirteen 4-tuple cross-ratio identities on random generic tuples."""
    space = make_space(eps, d, r)
    label = f"suite.cross-ratios.{eps}.{d}.{r}"
    worst: dict[str, float] = {}
    for i in range(trials):
        t = random_generic_tuple(space, 4, rng_for(seed, label, i))
        for key, val in perm4_identity_residuals(t).items():
            worst[key] = max(worst.get(key, 0.0), val)
    return [_record(f"cross-ratios.{k}", trials, v, tol, 1e-9)
            for k, v in sorted(worst.items())]


def suite_hats(eps, d, r, trials, seed, tol) -> list[CheckRecord]:
    """The seven 5-tuple (hat-vector) identities on random generic tuples."""
    space = make_space(eps, d, r)
    label = f"suite.hats.{eps}.{d}.{r}"
    worst: dict[str, float] = {}
    for i in range(trials):
        t = random_generic_tuple(space, 5, rng_for(seed, label, i))
        for key, val in quint_identity_residuals(t).items():
            worst[key] = max(worst.get(key, 0.0), val)
    return [_record(f"hats.{k}", trials, v, tol, 1e-9)
            for k, v in sorted(worst.items())]


# ----------------------------------------------------------------------
# Reduction suite
# ----------------------------------------------------------------------

def _canonical_gap(a, b) -> float:
    """Worst projective distance between corresponding canonical points."""
    return max(chordal_distance(u, v) for u, v in zip(a.vectors, b.vectors))


def suite_reductions(eps, d, r, trials, seed, tol) -> list[CheckRecord]:
    """Round-trips of the parametrizations, reduction residuals, invariance
    of canonical tuples under random isometries, and the number of trials
    that end in a numerical failure (``RuntimeError``) of a reducer."""
    space = make_space(eps, d, r)
    label = f"suite.reductions.{eps}.{d}.{r}"
    quint_ok = r >= min_rank(eps, d) + 1
    worst: dict[str, float] = {}

    def bump(key: str, val: float) -> None:
        worst[key] = max(worst.get(key, 0.0), float(val))

    numerical = 0  # trials ending in a numerical failure of a reducer
    for i in range(trials):
        rng = rng_for(seed, label, i)
        try:
            # parametrization round-trips
            a = tuple(rng.normal(size=2) @ np.array([1, 1j]) for _ in range(2))
            t3 = phi3(space, *a)
            bump("roundtrip.pi3-phi3", max(abs(x - y) / max(1.0, abs(y))
                                           for x, y in zip(pi3(t3), a)))
            if quint_ok:
                x = tuple(rng.normal(size=2) @ np.array([1, 1j]) for _ in range(5))
                t4 = phi4(space, x[:2], x[2:4], x[4])
                bump("roundtrip.pi4-phi4", max(abs(u - y) / max(1.0, abs(y))
                                               for u, y in zip(pi4(t4), x)))
            # reductions of random generic tuples
            rt = reduce_triple(random_generic_tuple(space, 3, rng))
            bump("reduce.triple", rt.residual)
            t = random_generic_tuple(space, 4, rng)
            rq = reduce_quadruple(t)
            bump("reduce.quadruple", rq.residual)
            g = random_group_element(space, rng)
            rq2 = reduce_quadruple(t.apply(g))
            bump("invariance.quadruple", _canonical_gap(rq.canonical, rq2.canonical))
            if quint_ok:
                t5 = random_generic_tuple(space, 5, rng)
                r5 = reduce_quintuple(t5)
                bump("reduce.quintuple", r5.residual)
                r52 = reduce_quintuple(t5.apply(g))
                bump("invariance.quintuple", _canonical_gap(r5.canonical, r52.canonical))
        except RuntimeError:
            numerical += 1

    out = []
    for key in sorted(worst):
        default = 1e-10 if key.startswith("roundtrip") else 1e-8
        out.append(_record(f"reductions.{key}", trials, worst[key], tol, default))
    out.append(_record("reductions.numerical", trials, numerical, tol, 0.0))
    return out


# ----------------------------------------------------------------------
# Dilogarithm suites
# ----------------------------------------------------------------------

def suite_dilog(eps, d, r, trials, seed, tol) -> list[CheckRecord]:
    """Six dilogarithm symmetries, the five-term equation, and the maximal
    tetrahedron volume."""
    z = normal_complex_batch(seed, "suite.dilog.z", 0, trials, 1)[:, 0] * 1.5
    out = []
    for key, res in sorted(dilog_symmetry_residuals(z).items()):
        out.append(_record(f"dilog.{key}", trials, np.max(res), tol, 1e-10))

    ab = normal_complex_batch(seed, "suite.dilog.ab", 0, trials, 2) * 1.5
    a, b = ab[:, 0], ab[:, 1]
    guard = 1e-3
    keep = ((np.abs(a) > guard) & (np.abs(b) > guard) & (np.abs(1 - a) > guard)
            & (np.abs(1 - b) > guard) & (np.abs(a - b) > guard))
    res = np.abs(spence_abel_residual(bloch_wigner, a[keep], b[keep]))
    out.append(_record("dilog.spence-abel", int(keep.sum()), np.max(res), tol, 1e-10))

    out.append(_record("dilog.max-value", 1, abs(v_max() - 1.0149), tol, 5e-4))
    sampled = np.max(np.abs(bloch_wigner(z)))
    out.append(_record("dilog.sample-below-max", trials,
                       max(0.0, sampled - v_max()), tol, 1e-12))
    return out


def _bounded_test_functions(seed: int, count: int = 10) -> list[BoundedFunction2]:
    """A deterministic family of bounded two-variable test functions."""
    fns = []
    for j in range(count):
        rng = rng_for(seed, "suite.d3.fn", j)
        c = rng.normal(size=3) + 1j * rng.normal(size=3)

        def fn(u, w, c=c):
            return (c[0] * u / (1 + abs(u) ** 2) + c[1] * w / (1 + abs(w) ** 2)
                    + c[2] * u * w / (1 + abs(u * w) ** 2))

        fns.append(BoundedFunction2(fn, float(np.sum(np.abs(c))), name=f"f{j}"))
    return fns


def suite_d3(eps, d, r, trials, seed, tol) -> list[CheckRecord]:
    """Conjugation of the face-sum operator: the alternating sum of f over
    the cross-ratio coordinates of the five faces of a generic 5-tuple equals
    the closed-form five-term operator at the tuple's coordinates."""
    space = make_space(eps, d, r)
    label = f"suite.d3.{eps}.{d}.{r}"
    fns = _bounded_test_functions(seed)
    worst = 0.0
    for i in range(trials):
        t = random_generic_tuple(space, 5, rng_for(seed, label, i))
        x = pi4(t)
        faces = [pi3(t.face(j)) for j in range(5)]
        for f in fns:
            direct = sum((-1) ** j * f(*faces[j]) for j in range(5))
            closed = d3_infinity(f, x, eps)
            worst = max(worst, abs(direct - closed) / max(1.0, abs(closed)))
    return [_record("d3.conjugation", trials * len(fns), worst, tol, 1e-9)]


# ----------------------------------------------------------------------
# Flag cocycle suites
# ----------------------------------------------------------------------

def suite_cocycle(eps, d, r, trials, seed, tol) -> list[CheckRecord]:
    """Cocycle residual, alternation, invariance, and contributing-class
    counts of the volume cocycle for n = 2, 3, 4."""
    out = []
    for n in (2, 3, 4):
        label = f"suite.cocycle.n{n}"
        want = n * (n * n - 1) // 6
        res = alt = inv = cnt = 0.0
        for i in range(trials):
            rng = rng_for(seed, label, i)
            five = random_flag_tuple(n, 5, rng)
            res = max(res, abs(cocycle_residual(five)))
            four = random_flag_tuple(n, 4, rng)
            val = b_n(four)
            alt = max(alt, abs(val + b_n([four[1], four[0], four[2], four[3]])))
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            inv = max(inv, abs(val - b_n([AffineFlag.create(g @ f.vecs) for f in four])))
            cnt = max(cnt, abs(len(contributing_j(four)) - want))
        out.append(_record(f"cocycle.residual.n{n}", trials, res, tol, 1e-8))
        out.append(_record(f"cocycle.alternation.n{n}", trials, alt, tol, 1e-9))
        out.append(_record(f"cocycle.gl-invariance.n{n}", trials, inv, tol, 1e-9))
        out.append(_record(f"cocycle.contributing.n{n}", trials, cnt, tol, 0.0))
    return out


_PERJ_FORMS = {
    (2, 0, 0, 0): lambda a, b: bloch_wigner(b),
    (0, 2, 0, 0): lambda a, b: bloch_wigner(b),
    (0, 0, 2, 0): lambda a, b: bloch_wigner(b),
    (0, 0, 0, 2): lambda a, b: bloch_wigner(b),
    (1, 1, 0, 0): lambda a, b: -bloch_wigner(b / a),
    (0, 0, 1, 1): lambda a, b: -bloch_wigner(b / a),
    (1, 0, 1, 0): lambda a, b: bloch_wigner((1 - b) / (1 - a)),
    (0, 1, 0, 1): lambda a, b: bloch_wigner((1 - b) / (1 - a)),
    (1, 0, 0, 1): lambda a, b: -bloch_wigner(a * (1 - b) / (b * (1 - a))),
    (0, 1, 1, 0): lambda a, b: -bloch_wigner(a * (1 - b) / (b * (1 - a))),
}


def suite_bbi_value(eps, d, r, trials, seed, tol) -> list[CheckRecord]:
    """The closed-form value of the restricted rank-2 cocycle and its
    individual index-class contributions."""
    ab = normal_complex_batch(seed, "suite.bbi.ab", 0, trials, 2)
    a, b = ab[:, 0], ab[:, 1]
    got = b4_so4_batch(a, b)
    want = 2.0 * (bloch_wigner(a) + bloch_wigner(b))
    closed = np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))
    out = [_record("bbi.closed-form", trials, closed, tol, 1e-8)]

    f_inf, f0, f1 = _so4_fixed()
    nj = max(1, trials // 10)
    worst = 0.0
    for i in range(nj):
        aj, bj = normal_complex_batch(seed, "suite.bbi.perj", i, 1, 2)[0]
        flags = [f_inf, f0, f1, standard_flags_so4(aj, bj)]
        for J, form in _PERJ_FORMS.items():
            worst = max(worst, abs(b_n_j(flags, J) - form(aj, bj)))
    out.append(_record("bbi.per-j", nj * len(_PERJ_FORMS), worst, tol, 1e-9))
    return out


# ----------------------------------------------------------------------
# Constants suite
# ----------------------------------------------------------------------

def suite_constants(eps, d, r, trials, seed, tol) -> list[CheckRecord]:
    """Exact constants: the Dynkin table against the restriction bookkeeping,
    the Gromov-norm coefficients, and the maximal tetrahedron volume."""
    worst = 0.0
    for rr in range(1, 11):
        for fam in "ABC":
            st = family_norm(FamilyTag(fam, rr))
            worst = max(worst, abs(float(st.coefficient - dynkin_index(st.tag))))
    out = [_record("constants.index-bookkeeping", 30, worst, tol, 0.0)]

    worst = max(abs(gromov_norm_bn(n) / v_max() - float(bn_coefficient(n)))
                for n in range(2, 9))
    out.append(_record("constants.gromov-bn", 7, worst, tol, 1e-12))

    out.append(_record("constants.tetrahedron-volume", 1,
                       abs(v_max() - 1.014941606409653625021202554275), tol, 1e-12))
    return out


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

SUITES: dict[str, Callable] = {
    "cross-ratios": suite_cross_ratios,
    "hats": suite_hats,
    "reductions": suite_reductions,
    "dilog": suite_dilog,
    "d3": suite_d3,
    "cocycle": suite_cocycle,
    "bbi-value": suite_bbi_value,
    "constants": suite_constants,
}

SUITE_DEFAULT_TRIALS: dict[str, int] = {
    "cross-ratios": 1000,
    "hats": 1000,
    "reductions": 200,
    "dilog": 10000,
    "d3": 100,
    "cocycle": 25,
    "bbi-value": 100,
    "constants": 1,
}


def run_suite(name: str, *, eps: int = 1, d: int = 0, r: int = 3,
              trials: int | None = None, seed: int = 0,
              tol: Tol | None = None) -> list[CheckRecord]:
    """Run one named suite (or every suite for ``name='all'``)."""
    tol = tol or tol_lookup()
    names = list(SUITES) if name == "all" else [name]
    checks: list[CheckRecord] = []
    for nm in names:
        if nm not in SUITES:
            raise KeyError(f"unknown suite {nm!r}; expected one of {', '.join(SUITES)} or all")
        n_trials = SUITE_DEFAULT_TRIALS[nm] if trials is None else int(trials)
        checks.extend(SUITES[nm](eps, d, r, n_trials, seed, tol))
    return checks
