"""The dilogarithm, the Bloch-Wigner function, and hyperbolic volume terms.

``li2`` evaluates the complex dilogarithm Li_2 with the standard cut along
[1, oo), via inversion/reflection reductions and a Bernoulli log-series.
``bloch_wigner`` is the real single-valued combination

    D(z) = Im(Li_2(z)) + arg(1 - z) * log|z|,

continuous on all of C and totalized to 0 at 0, 1 and overflow/infinite
inputs.  Its maximum value v = D(exp(i pi/3)) ~ 1.01494 is the volume of the
regular ideal 3-simplex; ``v_max`` returns it.

``vol_p1`` is the induced volume of a 4-tuple on the projective line, and
``d3_infinity`` the alternating five-term combination that a
boundary 5-tuple induces on a two-variable function via its cross-ratio
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Sequence

import numpy as np

from .crossratios import derived_c2

__all__ = [
    "li2",
    "bloch_wigner",
    "v_max",
    "dilog_symmetry_residuals",
    "spence_abel_residual",
    "BoundedFunction2",
    "d3_infinity",
    "vol_p1",
    "vol_p1_batch",
]

PI2_6 = np.pi ** 2 / 6


def _bernoulli_series_coeffs(count: int) -> np.ndarray:
    """Coefficients C_k = B_k / (k+1)! of Li_2(z) = sum C_k u^{k+1},
    u = -log(1-z), computed exactly and rounded once."""
    bern = [Fraction(1)]
    for m in range(1, count):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * bern[j]
        bern.append(-acc / (m + 1))
    return np.array([float(b / factorial(k + 1)) for k, b in enumerate(bern)])


_SERIES = _bernoulli_series_coeffs(28)


def li2(z):
    """Complex dilogarithm (principal branch, cut on [1, oo)).

    Vectorized; scalar input gives a scalar complex output.  Accuracy is
    ~1e-14 absolute away from the branch point z = 1.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    w = np.atleast_1d(z).copy()
    out = np.zeros_like(w)

    # Stage 1: |z| > 1 -> invert.  Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2/2
    minv = np.abs(w) > 1.0
    neg = np.where(minv, -w, 1.0)
    # Negating real z flips +0.0j to -0.0j, which would put log(-z) on the
    # wrong side of the cut; normalize so the real axis means the +0 side.
    neg = np.where(neg.imag == 0.0, neg.real + 0.0j, neg)
    extra_inv = np.where(minv, -PI2_6 - 0.5 * np.log(neg) ** 2, 0.0)
    sign_inv = np.where(minv, -1.0, 1.0)
    w = np.where(minv, 1.0 / np.where(minv, w, 1.0), w)

    # Stage 2: Re > 1/2 -> reflect.  Li2(z) = pi^2/6 - log(z)log(1-z) - Li2(1-z)
    mref = w.real > 0.5
    one_minus = 1.0 - w
    # The product log(z)log(1-z) -> 0 as z -> 1; guard the log(0) = -inf case.
    at_one = mref & (np.abs(one_minus) == 0.0)
    safe_w = np.where(mref & ~at_one, w, 0.5)
    safe_1m = np.where(mref & ~at_one, one_minus, 0.5)
    extra_ref = np.where(mref, PI2_6 - np.where(at_one, 0.0, np.log(safe_w) * np.log(safe_1m)), 0.0)
    sign_ref = np.where(mref, -1.0, 1.0)
    w = np.where(mref, one_minus, w)

    # Stage 3: Bernoulli series in u = -log(1-w), |u| <~ 1.1 here.
    u = -np.log(1.0 - w)
    acc = np.zeros_like(u)
    for c in _SERIES[::-1]:
        acc = acc * u + c
    core = u * acc

    out = sign_inv * (extra_ref + sign_ref * core) + extra_inv
    return out[0] if scalar else out.reshape(z.shape)


def bloch_wigner(z):
    """Bloch-Wigner function D(z), totalized to 0 at 0, 1 and non-finite z."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    w = np.atleast_1d(z)
    bad = ~np.isfinite(w) | (w == 0.0) | (w == 1.0)
    safe = np.where(bad, 0.5, w)
    val = np.imag(li2(safe)) + np.angle(1.0 - safe) * np.log(np.abs(safe))
    val = np.where(bad, 0.0, val)
    return float(val[0]) if scalar else val.reshape(z.shape)


@lru_cache(maxsize=1)
def v_max() -> float:
    """max D = D(exp(i pi/3)), cached for the session."""
    return bloch_wigner(np.exp(1j * np.pi / 3))


# ----------------------------------------------------------------------
# Functional equations
# ----------------------------------------------------------------------

def dilog_symmetry_residuals(z) -> dict[str, np.ndarray]:
    """Residual arrays of the six symmetries of D (incl. anti-holomorphy)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    d = bloch_wigner(z)
    out = {
        "D(1-1/z)=D(z)": np.abs(bloch_wigner(1 - 1 / z) - d),
        "D(1/(1-z))=D(z)": np.abs(bloch_wigner(1 / (1 - z)) - d),
        "D(1/z)=-D(z)": np.abs(bloch_wigner(1 / z) + d),
        "D(1-z)=-D(z)": np.abs(bloch_wigner(1 - z) + d),
        "D(z/(z-1))=-D(z)": np.abs(bloch_wigner(z / (z - 1)) + d),
        "D(conj(z))=-D(z)": np.abs(bloch_wigner(np.conj(z)) + d),
    }
    return out


def spence_abel_residual(f: Callable, a, b, *, guard: float = 1e-8):
    """The five-term combination

        f(a(1-b)/(b(1-a))) - f((1-b)/(1-a)) + f(b/a) - f(b) + f(a)

    which vanishes identically for f = D.  Inputs inside the guard band
    around {0, 1, a=b} are rejected."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    for name, val in (("a", a), ("b", b), ("1-a", 1 - a), ("1-b", 1 - b), ("a-b", a - b)):
        if np.any(np.abs(val) <= guard):
            raise ValueError(f"spence_abel_residual: |{name}| inside the guard band {guard:.1e}")
    return (f(a * (1 - b) / (b * (1 - a))) - f((1 - b) / (1 - a)) + f(b / a) - f(b) + f(a))


@dataclass(frozen=True)
class BoundedFunction2:
    """A bounded function of two complex variables with its declared bound."""

    fn: Callable[[complex, complex], complex]
    bound: float
    name: str = ""

    def __call__(self, z1, z2):
        return self.fn(z1, z2)


def d3_infinity(f, x: Sequence[complex], eps: int):
    """Alternating five-term combination induced on f by the coordinates
    x = (a1, a2, b1, b2, c1) of a boundary 5-tuple:

        f(eps*a1*c1/(a2*b1), c1/a2) - f(c1/b1, eps*b2*c1/(a2*b1))
        + f(c1, c2) - f(b1, b2) + f(a1, a2),      c2 = eps*a1*b2*c1/(a2*b1).

    For f constant = c the value is c; for a 5-tuple p with these
    coordinates it equals the alternating sum of f over the cross-ratio
    coordinates of the faces of p.
    """
    a1, a2, b1, b2, c1 = (complex(v) for v in x)
    for name, v in (("a1", a1), ("a2", a2), ("b1", b1), ("b2", b2), ("c1", c1)):
        if v == 0:
            raise ValueError(f"d3_infinity: coordinate {name} must be nonzero")
    fn = f.fn if isinstance(f, BoundedFunction2) else f
    c2 = derived_c2((a1, a2), (b1, b2), c1, eps)
    return (fn(eps * a1 * c1 / (a2 * b1), c1 / a2)
            - fn(c1 / b1, eps * b2 * c1 / (a2 * b1))
            + fn(c1, c2)
            - fn(b1, b2)
            + fn(a1, a2))


# ----------------------------------------------------------------------
# Volume of 4-tuples on the projective line
# ----------------------------------------------------------------------

def _as_p1_vector(p) -> np.ndarray:
    """Standard lift: z -> (1, z); infinity (None / inf) -> (0, 1);
    a length-2 array is taken as homogeneous coordinates."""
    if p is None:
        return np.array([0.0, 1.0], dtype=complex)
    arr = np.asarray(p)
    if arr.shape == (2,):
        return arr.astype(complex)
    z = complex(arr)
    if not np.isfinite(z):
        return np.array([0.0, 1.0], dtype=complex)
    return np.array([1.0, z], dtype=complex)


def vol_p1(p0, p1, p2, p3) -> float:
    """Signed ideal volume D(cr0) of four points on the projective line.

    Points may be complex numbers, None/inf for the point at infinity, or
    homogeneous 2-vectors.  Degenerate quadruples (a vanishing determinant
    pushes the cross-ratio to 0, 1 or infinity) return 0 by totalization.
    """
    return float(vol_p1_batch(np.stack([_as_p1_vector(p) for p in (p0, p1, p2, p3)])))


def vol_p1_batch(u: np.ndarray) -> np.ndarray:
    """Batched vol_p1 over homogeneous lifts, shape (..., 4, 2) -> (...)."""
    u = np.asarray(u, dtype=complex)

    def det(i, j):
        return u[..., i, 0] * u[..., j, 1] - u[..., i, 1] * u[..., j, 0]

    num = det(0, 2) * det(1, 3)
    den = det(0, 3) * det(1, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return bloch_wigner(num / den)  # 0 for the degenerate cross-ratios 0, 1 and non-finite
