"""Norm constants of the degree-three classes and Monte Carlo sup estimation.

Closed-form side: the Dynkin indices of the four classical families, the
Gromov norm ``n(n^2-1)/6 * v`` of the degree-three generator on SL_n(C), and
the bookkeeping that relates the restricted family classes to it (factors
1, 1/2, 1, 1/2 for A, B, C, D).  The A/B/C norms are proven equalities; the
D-family value is a conjecture except at rank 2, and is labeled as such.

Numerical side: a deterministic, partition-independent Monte Carlo supremum
estimator over seeded parameter samples, with a coordinate-descent polish,
used to corroborate the closed forms.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from ._seeding import normal_complex_batch, uniform_batch
from .dilog import v_max, vol_p1_batch
from .flags import _b_chains, b4_so4_batch

__all__ = [
    "FAMILIES",
    "STATUS_PROVEN",
    "STATUS_CONJECTURE",
    "FamilyTag",
    "NormStatement",
    "dynkin_index",
    "bn_coefficient",
    "gromov_norm_bn",
    "family_norm",
    "SupProblem",
    "sup_problem",
    "estimate_sup",
    "operator_norm_res2",
]

FAMILIES = ("A", "B", "C", "D")

STATUS_PROVEN = "proven"
STATUS_CONJECTURE = "conjecture"


@dataclass(frozen=True)
class FamilyTag:
    """A classical family letter together with a rank.

    The groups are SL_{r+1}(C), SO_{2r+1}(C), Sp_{2r}(C), SO_{2r}(C) for
    A, B, C, D.  Ranks 1 and 2 of the D family sit outside the simple/stable
    range and are flagged ``exceptional``.
    """

    family: str
    r: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not isinstance(self.r, int) or self.r < 1:
            raise ValueError(f"rank must be an integer >= 1, got {self.r!r}")

    @property
    def exceptional(self) -> bool:
        return self.family == "D" and self.r in (1, 2)

    @property
    def ambient_n(self) -> int:
        """The n of the SL_n(C) the family class restricts from."""
        if self.family == "A":
            return self.r + 1
        if self.family == "B":
            return 2 * self.r + 1
        return 2 * self.r

    @property
    def restriction_factor(self) -> Fraction:
        """The normalization in front of the restricted generator."""
        return Fraction(1) if self.family in ("A", "C") else Fraction(1, 2)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.family}{self.r}"


def dynkin_index(tag: FamilyTag) -> int:
    """Dynkin index of the principal SL_2(C) homomorphism into the family
    group — exact integer arithmetic."""
    r = Fraction(tag.r)
    if tag.family == "A":
        value = r * (r + 1) * (r + 2) / 6
    elif tag.family == "B":
        value = r * (r + 1) * (2 * r + 1) / 3
    elif tag.family == "C":
        value = r * (4 * r * r - 1) / 3
    else:
        value = r * (r - 1) * (2 * r - 1) / 3
    if value.denominator != 1:  # pragma: no cover - the formulas are integral
        raise ArithmeticError(f"non-integral index for {tag}")
    return int(value)


def bn_coefficient(n: int) -> Fraction:
    """Gromov norm of the degree-three generator on SL_n(C), in units of the
    maximal ideal-tetrahedron volume: n(n^2-1)/6, exact."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"need an integer n >= 2, got {n!r}")
    return Fraction(n * (n * n - 1), 6)


def gromov_norm_bn(n: int) -> float:
    """``bn_coefficient(n)`` times the cached maximal tetrahedron volume."""
    return float(bn_coefficient(n)) * v_max()


class NormStatement(NamedTuple):
    """The norm of a family class in units of the maximal tetrahedron volume,
    together with its epistemic status."""

    tag: FamilyTag
    coefficient: Fraction
    status: str


def family_norm(tag: FamilyTag) -> NormStatement:
    """Norm bookkeeping for the restricted family classes.

    A, B, C: the restriction is isometric (A is the identity), so the norm is
    ``restriction_factor * bn_coefficient(ambient_n)`` — which equals the
    Dynkin index exactly; these are proven.  D: the restriction is *not*
    isometric (at rank 2 the norm genuinely drops), and the value
    ``dynkin_index(tag)`` is conjectural for every rank except the proven
    rank-2 case.
    """
    index = Fraction(dynkin_index(tag))
    if tag.family != "D":
        coeff = tag.restriction_factor * bn_coefficient(tag.ambient_n)
        if coeff != index:  # pragma: no cover - exact identity of the table
            raise ArithmeticError(f"index table mismatch for {tag}")
        return NormStatement(tag, coeff, STATUS_PROVEN)
    status = STATUS_PROVEN if tag.r == 2 else STATUS_CONJECTURE
    return NormStatement(tag, index, status)


# ----------------------------------------------------------------------
# Monte Carlo supremum estimation
# ----------------------------------------------------------------------

_CHUNK = 1 << 14


def _thread_count(threads: int | None) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("FSL_THREADS", "")
    return max(1, int(env)) if env.strip() else 1


def _scan_chunk(cocycle, sampler, seed: int, start: int, count: int):
    """Best |value| over one trial chunk: (value, global index, params row)."""
    try:
        params = np.asarray(sampler(seed, start, count))
    except Exception as exc:
        raise RuntimeError(f"sampler failed on trials [{start}, {start + count}): {exc}") from exc
    if params.shape[0] != count:
        raise RuntimeError(f"sampler returned {params.shape[0]} rows for {count} trials at {start}")
    try:
        vals = np.abs(np.asarray(cocycle(params), dtype=float))
    except Exception as exc:
        raise RuntimeError(f"cocycle failed on trials [{start}, {start + count}): {exc}") from exc
    k = int(vals.argmax())
    return float(vals[k]), start + k, params[k]


def _polish(cocycle, best_val: float, best_params: np.ndarray, *, sweeps: int = 20, step0: float = 0.25):
    """Coordinate-descent polish: per sweep, try +-step and +-i*step on each
    coordinate, keep improvements, halve the step after every sweep."""
    p = np.array(best_params, dtype=complex)
    val = best_val
    dim = p.size
    step = step0
    for _ in range(sweeps):
        for k in range(dim):
            cands = np.tile(p, (4, 1))
            cands[0, k] += step
            cands[1, k] -= step
            cands[2, k] += 1j * step
            cands[3, k] -= 1j * step
            vals = np.abs(np.asarray(cocycle(cands), dtype=float))
            j = int(vals.argmax())
            if vals[j] > val:
                val = float(vals[j])
                p = cands[j]
        step *= 0.5
    return val, p


def estimate_sup(
    cocycle: Callable[[np.ndarray], np.ndarray],
    sampler: Callable[[int, int, int], np.ndarray],
    trials: int,
    seed: int = 0,
    *,
    refine: bool = True,
    threads: int | None = None,
) -> tuple[float, np.ndarray]:
    """Monte Carlo supremum of ``|cocycle|`` over seeded parameter samples.

    ``sampler(seed, start, count)`` must return a ``(count, dim)`` parameter
    array whose row ``i`` depends only on ``(seed, start + i)``, and
    ``cocycle`` maps a ``(B, dim)`` batch to ``B`` values.  The estimate is
    then a pure function of ``(seed, trials)``: chunking, thread count
    (``FSL_THREADS`` or ``threads``), and merge order cannot change it.
    Ties between equal maxima go to the smallest trial index.

    Returns ``(estimate, argmax parameters)``; with ``refine`` the argmax is
    polished by 20 sweeps of step-halving coordinate descent.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    spans = [(s, min(_CHUNK, trials - s)) for s in range(0, trials, _CHUNK)]
    workers = _thread_count(threads)
    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda sc: _scan_chunk(cocycle, sampler, seed, *sc), spans))
    else:
        results = [_scan_chunk(cocycle, sampler, seed, *sc) for sc in spans]
    best_val, best_idx, best_params = results[0]
    for val, idx, params in results[1:]:
        if val > best_val or (val == best_val and idx < best_idx):
            best_val, best_idx, best_params = val, idx, params
    if refine:
        best_val, best_params = _polish(cocycle, best_val, best_params)
    return best_val, best_params


# ----------------------------------------------------------------------
# Ready-made sup problems
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SupProblem:
    """A named cocycle/sampler pair with its closed-form target sup.

    ``target_is_sup`` records whether the target is the exact supremum of the
    sampled evaluation (so refinement should reach it) or only an upper bound.
    """

    name: str
    dim: int
    sampler: Callable[[int, int, int], np.ndarray]
    cocycle: Callable[[np.ndarray], np.ndarray]
    target: float
    target_is_sup: bool = True

    def estimate(self, trials: int, seed: int = 0, *, refine: bool | None = None,
                 threads: int | None = None) -> tuple[float, np.ndarray]:
        if refine is None:
            refine = self.target_is_sup
        return estimate_sup(self.cocycle, self.sampler, trials, seed,
                            refine=refine, threads=threads)


def _sample_p1(seed: int, start: int, count: int) -> np.ndarray:
    return normal_complex_batch(seed, "sup.vol-p1", start, count, 4)


def _eval_p1(params: np.ndarray) -> np.ndarray:
    pts = np.stack([params, np.ones_like(params)], axis=-1)  # (B, 4, 2)
    return vol_p1_batch(pts)


_OMEGA = np.exp(1j * np.pi / 3.0)


def _sample_so4(seed: int, start: int, count: int) -> np.ndarray:
    g = normal_complex_batch(seed, "sup.b4-so4", start, count, 2)
    u = uniform_batch(seed, "sup.b4-so4.mix", start, count, 1)
    # One quarter of the trials cloud around the volume-maximizing parameters,
    # the rest roam; the split is per-index, hence partition-independent.
    return np.where(u < 0.25, _OMEGA + 0.35 * g, 1.5 * g)


def _eval_so4(params: np.ndarray) -> np.ndarray:
    return b4_so4_batch(params[:, 0], params[:, 1])


def _make_bn(n: int):
    dim = 4 * n * n

    def sample(seed: int, start: int, count: int) -> np.ndarray:
        return normal_complex_batch(seed, f"sup.b-{n}", start, count, dim)

    def evaluate(params: np.ndarray) -> np.ndarray:
        return _b_chains(np.asarray(params, dtype=complex).reshape(-1, 4, n, n))

    return dim, sample, evaluate


def sup_problem(name: str, *, n: int = 4) -> SupProblem:
    """Registry of the named estimation problems: ``vol-p1`` (sup is the
    maximal tetrahedron volume), ``b4-so4`` (sup 4v over boundary parameters),
    ``b-n`` (random flags; the Gromov norm is only an upper bound there)."""
    if name == "vol-p1":
        return SupProblem("vol-p1", 4, _sample_p1, _eval_p1, v_max())
    if name == "b4-so4":
        return SupProblem("b4-so4", 2, _sample_so4, _eval_so4, 4.0 * v_max())
    if name == "b-n":
        dim, sample, evaluate = _make_bn(int(n))
        return SupProblem(f"b-{n}", dim, sample, evaluate,
                          gromov_norm_bn(int(n)), target_is_sup=False)
    raise ValueError(f"unknown sup problem {name!r}; expected vol-p1 | b4-so4 | b-n")


def operator_norm_res2(trials: int = 100_000, seed: int = 1, *,
                       threads: int | None = None) -> tuple[Fraction, float]:
    """The norm ratio of the rank-2 restricted class against the ambient
    SL_4(C) generator: the exact value 4v/(10v) = 2/5, plus a Monte Carlo
    corroboration (sampled sup of the restricted cocycle divided by the
    ambient Gromov norm)."""
    prob = sup_problem("b4-so4")
    est, _ = prob.estimate(trials, seed, threads=threads)
    return Fraction(2, 5), est / gromov_norm_bn(4)
