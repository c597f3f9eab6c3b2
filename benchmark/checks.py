"""Output checks made apart from the program.

Nothing here imports ``fslab``.  The Gram matrix is rebuilt from the
documented basis order, cross-ratios are recomputed from pairings, and every
dilogarithm value comes from mpmath.  Each check returns a list of failure
messages (empty when the output passes), so a caller can report all of them.
"""

from __future__ import annotations

from itertools import combinations

import mpmath
import numpy as np

mpmath.mp.dps = 30

#: Relative tolerance of the group relation g^T J g = J.
TOL_GROUP = 1e-9
#: Largest projective distance from g.v_i to the canonical point i.
TOL_PROJECTIVE = 1e-8
#: Relative tolerance on isotropy and on cross-ratio agreement.
TOL_INVARIANT = 1e-9
#: Absolute tolerance between a program value of D and the mpmath value.
TOL_DILOG = 1e-9
#: The restricted-cocycle closed form and the cocycle face sum (absolute).
TOL_COCYCLE = 1e-8
#: Alternation and GL_n invariance of B_n, relative to max(1, |B_n|).
TOL_SYMMETRY = 1e-9
#: The lower tolerances of ``fslab estimate-norm`` (its ``sup.lower`` check).
SUP_LOWER_TOL = {"vol-p1": 5e-3, "b4-so4": 0.05}


# ----------------------------------------------------------------------
# Formed spaces
# ----------------------------------------------------------------------

def gram_matrix(eps: int, d: int, r: int) -> np.ndarray:
    """J in the basis (e_r, ..., e_1, [h,] f_1, ..., f_r): omega(e_i, f_i) = 1,
    omega(f_i, e_i) = eps and, when d = 1, omega(h, h) = 1."""
    n = 2 * r + d
    J = np.zeros((n, n), dtype=complex)
    for i in range(1, r + 1):
        e, f = r - i, r + d + i - 1
        J[e, f] = 1
        J[f, e] = eps
    if d == 1:
        J[r, r] = 1
    return J


def projective_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Sine of the angle between the lines through u and v."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    perp = u - v * (np.vdot(v, u) / (nv * nv))
    return float(np.linalg.norm(perp) / nu)


def cross_ratios(w: np.ndarray, p: int, q: int, r: int, s: int) -> np.ndarray:
    """(cr0, cr1, cr2) of points (p, q, r, s) from the pairing matrix w."""
    return np.array([
        w[p, r] * w[q, s] / (w[p, s] * w[q, r]),
        w[q, s] * w[r, p] / (w[q, p] * w[r, s]),
        w[r, q] * w[p, s] / (w[r, s] * w[p, q]),
    ])


def tuple_invariants(J: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Cross-ratios of every 4-point sub-tuple, in a fixed order (empty for a
    triple, which has none)."""
    w = vectors @ J @ vectors.T
    subs = list(combinations(range(len(vectors)), 4))
    if not subs:
        return np.zeros(0, dtype=complex)
    return np.concatenate([cross_ratios(w, *s) for s in subs])


def _rel(a, b) -> float:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.size == 0:
        return 0.0
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b) / scale))


def check_reduction(eps: int, d: int, r: int, vectors: np.ndarray, g: np.ndarray,
                    canonical: np.ndarray) -> list[str]:
    """A reduction output (g, canonical tuple) against its input tuple."""
    J = gram_matrix(eps, d, r)
    out = []
    scale = max(1.0, float(np.abs(g).max()) ** 2)
    group = float(np.abs(g.T @ J @ g - J).max()) / scale
    if not group <= TOL_GROUP:
        out.append(f"g^T J g != J (relative residual {group:.3e})")
    for i, (v, c) in enumerate(zip(vectors, canonical)):
        dist = projective_distance(g @ v, c)
        if not dist <= TOL_PROJECTIVE:
            out.append(f"g.v_{i} is {dist:.3e} from canonical point {i}")
        iso = abs(c @ J @ c) / float(np.linalg.norm(c)) ** 2
        if not iso <= TOL_INVARIANT:
            out.append(f"canonical point {i} is not isotropic (|q|/|c|^2 = {iso:.3e})")
    err = _rel(tuple_invariants(J, canonical), tuple_invariants(J, vectors))
    if not err <= TOL_INVARIANT:
        out.append(f"canonical cross-ratios differ from the input's (relative {err:.3e})")
    return out


def check_same_canonical(canonicals: list[np.ndarray]) -> list[str]:
    """Triples have no invariants: every triple of one space reduces to the
    same canonical tuple."""
    out = []
    first = canonicals[0]
    for k, other in enumerate(canonicals[1:], start=1):
        dist = max(projective_distance(a, b) for a, b in zip(first, other))
        if not dist <= TOL_PROJECTIVE:
            out.append(f"triple {k} reduces to another canonical tuple (distance {dist:.3e})")
    return out


# ----------------------------------------------------------------------
# The Bloch-Wigner function
# ----------------------------------------------------------------------

def bloch_wigner(z) -> float:
    """D(z) = Im Li_2(z) + arg(1 - z) log|z|, in mpmath; D(0) = D(1) = 0."""
    z = mpmath.mpc(complex(z))
    if z == 0 or z == 1:
        return 0.0
    return float(mpmath.im(mpmath.polylog(2, z)) + mpmath.arg(1 - z) * mpmath.log(abs(z)))


#: The maximal ideal-tetrahedron volume v = D(exp(i pi / 3)).
V_MAX = bloch_wigner(complex(mpmath.exp(1j * mpmath.pi / 3)))


def p1_cross_ratio(z0, z1, z2, z3) -> complex:
    """Cross-ratio of four points of the projective line, in the convention
    of the volume D((z0 - z2)(z1 - z3) / ((z0 - z3)(z1 - z2)))."""
    return (z0 - z2) * (z1 - z3) / ((z0 - z3) * (z1 - z2))


def vol_p1_value(row) -> float:
    """The vol-p1 problem's value at a parameter row (four affine points)."""
    return abs(bloch_wigner(p1_cross_ratio(*row)))


def b4_so4_value(row) -> float:
    """The b4-so4 problem's value at (a, b): |2 (D(a) + D(b))|."""
    a, b = row
    return abs(2.0 * (bloch_wigner(a) + bloch_wigner(b)))


SUP_VALUE = {"vol-p1": vol_p1_value, "b4-so4": b4_so4_value}
SUP_TARGET = {"vol-p1": V_MAX, "b4-so4": 4.0 * V_MAX}


# ----------------------------------------------------------------------
# Sup-norm jobs
# ----------------------------------------------------------------------

def check_sup(problem: str, estimate: float, argmax, sample_rows, sample_values) -> list[str]:
    """A sup job's estimate against mpmath.

    ``sample_rows`` are scanned parameter rows and ``sample_values`` the
    program's cocycle values on them: each must match the oracle and none may
    exceed the estimate, which is the maximum over all scanned rows.
    """
    value = SUP_VALUE[problem]
    target = SUP_TARGET[problem]
    out = []
    at_argmax = value(argmax)
    if not abs(estimate - at_argmax) <= TOL_COCYCLE:
        out.append(f"{problem}: estimate {estimate!r} but the value at the argmax is {at_argmax!r}")
    if not estimate <= target + TOL_DILOG:
        out.append(f"{problem}: estimate {estimate!r} exceeds the target {target!r}")
    if not estimate >= target - SUP_LOWER_TOL[problem]:
        out.append(f"{problem}: estimate {estimate!r} is below target - {SUP_LOWER_TOL[problem]}")
    for row, got in zip(sample_rows, sample_values):
        want = value(row)
        if not abs(abs(got) - want) <= TOL_COCYCLE:
            out.append(f"{problem}: scanned row evaluates to {got!r}, oracle {want!r}")
        if not want <= estimate + TOL_DILOG:
            out.append(f"{problem}: scanned row reaches {want!r} > estimate {estimate!r}")
    return out


# ----------------------------------------------------------------------
# The flag cocycle
# ----------------------------------------------------------------------

def bn_bound(n: int) -> float:
    """The Gromov norm n(n^2 - 1)/6 * v of B_n."""
    return n * (n * n - 1) / 6.0 * V_MAX


def check_bn_value(n: int, value: float) -> list[str]:
    bound = bn_bound(n)
    if not abs(value) <= bound + TOL_DILOG:
        return [f"|B_{n}| = {abs(value)!r} exceeds n(n^2-1)/6 v = {bound!r}"]
    return []


def check_b2(mats, value: float) -> list[str]:
    """B_2 is D of the cross-ratio of the four first flag vectors."""
    def det(i, j):
        return mats[i][0, 0] * mats[j][1, 0] - mats[i][1, 0] * mats[j][0, 0]

    want = bloch_wigner(det(0, 2) * det(1, 3) / (det(0, 3) * det(1, 2)))
    if not abs(value - want) <= TOL_DILOG:
        return [f"B_2 = {value!r} but D(cross-ratio) = {want!r}"]
    return []


def check_boundary(a: complex, b: complex, value: float) -> list[str]:
    """B_4(F_inf, F_0, F_1, F_(a,b)) = 2 (D(a) + D(b))."""
    want = 2.0 * (bloch_wigner(a) + bloch_wigner(b))
    if not abs(value - want) <= TOL_COCYCLE:
        return [f"B_4 on the boundary tuple ({a}, {b}) = {value!r}, closed form {want!r}"]
    return []


def check_swap(value: float, swapped: float) -> list[str]:
    """Swapping two flags negates B_n."""
    if not abs(value + swapped) <= TOL_SYMMETRY * max(1.0, abs(value)):
        return [f"B_n = {value!r} but B_n with two flags swapped = {swapped!r}"]
    return []


def check_invariance(value: float, moved: float) -> list[str]:
    """A common GL_n element leaves B_n unchanged."""
    if not abs(value - moved) <= TOL_SYMMETRY * max(1.0, abs(value)):
        return [f"B_n = {value!r} but B_n(g.F) = {moved!r}"]
    return []


def check_face_sum(face_values) -> list[str]:
    """The alternating face sum of B_n over a 5-tuple of flags vanishes."""
    total = sum((-1) ** i * v for i, v in enumerate(face_values))
    if not abs(total) <= TOL_COCYCLE:
        return [f"alternating face sum of B_n = {total!r}"]
    return []
