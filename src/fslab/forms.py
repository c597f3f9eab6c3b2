"""Formed complex vector spaces and their isometry groups.

A *formed space* carries a nondegenerate bilinear form ``omega`` on C^n that
is epsilon-symmetric: ``omega(w, v) = eps * omega(v, w)`` with ``eps = +1``
(orthogonal) or ``eps = -1`` (symplectic).  The admissible shapes are

================  ==========  =============================
(eps, d)          n = 2r + d  isometry group
================  ==========  =============================
(+1, 1)           2r + 1      odd orthogonal  O(2r+1, C)
(-1, 0)           2r          symplectic      Sp(2r, C)
(+1, 0)           2r          even orthogonal O(2r, C)
================  ==========  =============================

The standard basis is ordered ``(e_r, ..., e_1, [h,] f_1, ..., f_r)`` and the
Gram matrix J has antidiagonal identity blocks in the corners so that
``omega(e_i, f_j) = delta_ij`` and, for d = 1, ``q(h) = 1`` where
``q(v) = omega(v, v)``.  All vectors are column coordinate arrays in this
basis; nothing here is Hermitian (no conjugation anywhere in the form).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ADMISSIBLE",
    "TOL_GROUP",
    "TOL_GENERIC",
    "TOL_VALUE",
    "TOL_REDUCE",
    "RANK_RTOL",
    "FormedSpace",
    "GroupElement",
    "ProjPoint",
    "make_space",
    "principal_sqrt",
    "nullspace",
    "normalize_projective",
    "chordal_distance",
    "omega",
    "qform",
    "is_in_group",
    "proj_hyperbolic",
    "complement_hat",
    "witt_complete",
    "random_isotropic",
    "random_group_element",
    "embed_iota",
]

# Admissible (eps, d) pairs.
ADMISSIBLE = ((+1, 1), (-1, 0), (+1, 0))

# Package-wide tolerance defaults (all relative unless stated otherwise).
TOL_GROUP = 1e-9     # group-membership residual
TOL_GENERIC = 1e-8   # genericity guards (pairings, discriminants)
TOL_VALUE = 1e-7     # agreement of independently computed values
TOL_REDUCE = 1e-8    # projective residual of canonical reductions
RANK_RTOL = 1e-8     # singular values below RANK_RTOL * s_max count as zero


def principal_sqrt(z):
    """Principal square root: nonnegative real part, and +imag on the
    negative real axis (immune to the sign of a -0.0 imaginary part)."""
    w = np.sqrt(np.asarray(z, dtype=complex))
    flip = (w.real < 0) | ((w.real == 0) & (w.imag < 0))
    w = np.where(flip, -w, w)
    return w[()] if w.ndim == 0 else w


def nullspace(mat: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of the right null space of ``mat``."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(mat)
    if s.size:
        rank = int(np.sum(s > rtol * s[0]))
    else:
        rank = 0
    return vh[rank:].conj().T


def normalize_projective(v: np.ndarray) -> np.ndarray:
    """Scale so the first coordinate of modulus > 1e-12 * ||v|| equals 1."""
    v = np.asarray(v, dtype=complex)
    scale = np.linalg.norm(v)
    if scale == 0 or not np.isfinite(scale):
        raise ValueError("cannot normalize a zero or non-finite vector")
    idx = np.flatnonzero(np.abs(v) > 1e-12 * scale)
    if idx.size == 0:
        raise ValueError("cannot normalize a numerically zero vector")
    return v / v[idx[0]]


def chordal_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Distance between projective points: the sine of the angle between the
    lines.  Computed as the relative norm of the component of u orthogonal to
    v, which stays accurate down to rounding (unlike 1 - cos^2, whose floor
    is sqrt(eps))."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ValueError("chordal distance of a zero vector is undefined")
    perp = u - v * (np.vdot(v, u) / (nv * nv))
    return float(min(1.0, np.linalg.norm(perp) / nu))


@dataclass(frozen=True)
class FormedSpace:
    """A formed space C^n with its Gram matrix in the standard basis."""

    eps: int
    d: int
    r: int
    J: np.ndarray = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return 2 * self.r + self.d

    # ------------------------------------------------------------------
    # Standard basis bookkeeping.  Column order: e_r, ..., e_1, [h,] f_1..f_r
    # ------------------------------------------------------------------
    def e_index(self, i: int) -> int:
        if not 1 <= i <= self.r:
            raise IndexError(f"e_{i} out of range for r={self.r}")
        return self.r - i

    def f_index(self, i: int) -> int:
        if not 1 <= i <= self.r:
            raise IndexError(f"f_{i} out of range for r={self.r}")
        return self.r + self.d + i - 1

    def h_index(self) -> int:
        if self.d != 1:
            raise IndexError("no unit vector h when d=0")
        return self.r

    def e(self, i: int) -> np.ndarray:
        v = np.zeros(self.n, dtype=complex)
        v[self.e_index(i)] = 1
        return v

    def f(self, i: int) -> np.ndarray:
        v = np.zeros(self.n, dtype=complex)
        v[self.f_index(i)] = 1
        return v

    def h(self) -> np.ndarray:
        v = np.zeros(self.n, dtype=complex)
        v[self.h_index()] = 1
        return v

    # ------------------------------------------------------------------
    def omega(self, v: np.ndarray, w: np.ndarray):
        """Bilinear form; batched over leading axes of either argument."""
        v = np.asarray(v, dtype=complex)
        w = np.asarray(w, dtype=complex)
        if v.ndim == 1 and w.ndim == 1:
            return complex(v @ self.J @ w)
        return np.einsum("...i,ij,...j->...", v, self.J, w)

    def q(self, v: np.ndarray):
        """Quadratic evaluation q(v) = omega(v, v) (identically 0 if eps=-1)."""
        v = np.asarray(v, dtype=complex)
        if v.ndim == 1:
            return complex(v @ self.J @ v)
        return np.einsum("...i,ij,...j->...", v, self.J, v)

    def gram(self, vectors: Sequence[np.ndarray]) -> np.ndarray:
        a = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
        return a.T @ self.J @ a

    def middle(self) -> "FormedSpace":
        """The formed space spanned by the inner basis (e_{r-1}, ..., f_{r-1})."""
        if self.r < 1:
            raise ValueError("no inner space below a rank-0 space")
        return make_space(self.eps, self.d, self.r - 1)

    def __repr__(self) -> str:  # keep ndarray out of reprs
        return f"FormedSpace(eps={self.eps:+d}, d={self.d}, r={self.r})"


def make_space(eps: int, d: int, r: int) -> FormedSpace:
    """Build the standard formed space for an admissible (eps, d) and r >= 0.

    r = 0 gives the rank-zero space of dimension d (empty for d = 0); it shows
    up as the innermost space of the reduction recursion.
    """
    if (eps, d) not in ADMISSIBLE:
        raise ValueError(f"(eps, d) = ({eps}, {d}) is not admissible; expected one of {ADMISSIBLE}")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    n = 2 * r + d
    qr = np.flip(np.eye(r, dtype=complex), axis=1)  # antidiagonal ones
    J = np.zeros((n, n), dtype=complex)
    J[:r, r + d:] = qr
    J[r + d:, :r] = eps * qr
    if d == 1:
        J[r, r] = 1
    return FormedSpace(eps=eps, d=d, r=r, J=J)


def omega(space: FormedSpace, v: np.ndarray, w: np.ndarray):
    return space.omega(v, w)


def qform(space: FormedSpace, v: np.ndarray):
    return space.q(v)


def is_in_group(space: FormedSpace, m: np.ndarray, tol: float = TOL_GROUP) -> bool:
    """Whether m preserves the form: m^T J m = J (relative residual <= tol)."""
    return group_residual(space, m) <= tol


def group_residual(space: FormedSpace, m: np.ndarray) -> float:
    m = np.asarray(m, dtype=complex)
    if m.shape != (space.n, space.n):
        raise ValueError(f"matrix shape {m.shape} does not match n={space.n}")
    if space.n == 0:
        return 0.0
    scale = max(1.0, float(np.abs(m).max()) ** 2)
    return float(np.abs(m.T @ space.J @ m - space.J).max() / scale)


@dataclass(frozen=True)
class GroupElement:
    """A validated isometry of a formed space."""

    space: FormedSpace
    m: np.ndarray = field(repr=False)
    residual: float = field(default=0.0, compare=False)

    @classmethod
    def create(cls, space: FormedSpace, m: np.ndarray, tol: float = TOL_GROUP) -> "GroupElement":
        m = np.asarray(m, dtype=complex)
        res = group_residual(space, m)
        if res > tol:
            raise ValueError(f"matrix fails m^T J m = J with residual {res:.3e} > {tol:.1e}")
        return cls(space=space, m=m, residual=res)

    def inverse(self) -> "GroupElement":
        # From m^T J m = J:  m^{-1} = J^{-1} m^T J, and J^{-1} = eps * J.
        inv = self.space.eps * (self.space.J @ self.m.T @ self.space.J)
        return GroupElement(space=self.space, m=inv, residual=group_residual(self.space, inv))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        m = self.m @ other.m
        return GroupElement(space=self.space, m=m, residual=group_residual(self.space, m))

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.m @ np.asarray(v, dtype=complex)

    def det(self) -> complex:
        return complex(np.linalg.det(self.m))


@dataclass(frozen=True)
class ProjPoint:
    """A point of the isotropic projective quadric, stored normalized."""

    vec: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, space: FormedSpace, vec: np.ndarray, tol: float = TOL_GENERIC) -> "ProjPoint":
        v = normalize_projective(vec)
        qv = abs(space.q(v))
        scale = float(np.linalg.norm(v)) ** 2
        if qv > tol * scale:
            raise ValueError(f"vector is not isotropic: |q(v)| = {qv:.3e} exceeds {tol:.1e} * |v|^2")
        return cls(vec=v)

    def distance(self, other: "ProjPoint") -> float:
        return chordal_distance(self.vec, other.vec)


# ----------------------------------------------------------------------
# Hyperbolic-pair projections
# ----------------------------------------------------------------------

def proj_hyperbolic(space: FormedSpace, v0: np.ndarray, v1: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Projection of v onto span(v0, v1) along its omega-complement, for a
    non-orthogonal isotropic pair (v0, v1)."""
    w01 = space.omega(v0, v1)
    scale = float(np.linalg.norm(v0) * np.linalg.norm(v1))
    if abs(w01) <= 1e-12 * scale:
        raise ValueError("proj_hyperbolic needs omega(v0, v1) != 0")
    w10 = space.eps * w01
    return (space.omega(v1, v) / w10) * np.asarray(v0, complex) + (space.omega(v0, v) / w01) * np.asarray(v1, complex)


def complement_hat(space: FormedSpace, v0: np.ndarray, v1: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The component of v omega-orthogonal to the hyperbolic plane (v0, v1)."""
    return np.asarray(v, dtype=complex) - proj_hyperbolic(space, v0, v1, v)


# ----------------------------------------------------------------------
# Witt completion
# ----------------------------------------------------------------------

def _omega_complement(space: FormedSpace, assigned: list[np.ndarray]) -> np.ndarray:
    """Orthonormal column basis of the omega-complement of the assigned vectors."""
    if not assigned:
        return np.eye(space.n, dtype=complex)
    a = np.column_stack(assigned)
    return nullspace(a.T @ space.J)


def _stable_quadratic_root(qu: complex, w: complex, qv: complex) -> complex | None:
    """Smallest-magnitude root of qu + 2 t w + t^2 qv = 0, or None."""
    if abs(qv) < 1e-14:
        if abs(w) < 1e-14:
            return None
        return -qu / (2 * w)
    disc = principal_sqrt(w * w - qu * qv)
    # Pick the sign that avoids cancellation, recover the other root by Vieta.
    big = (-w + disc) if abs(-w + disc) >= abs(-w - disc) else (-w - disc)
    if abs(big) < 1e-300:
        return None
    t1 = big / qv
    t2 = qu / big
    return t2 if abs(t2) <= abs(t1) else t1


def _make_isotropic(space: FormedSpace, u: np.ndarray, helpers: Iterable[np.ndarray]) -> np.ndarray | None:
    """Adjust u along helper directions until q(u) vanishes to rounding."""
    if space.eps == -1:
        return u
    scale = float(np.linalg.norm(u)) ** 2
    if abs(space.q(u)) <= 1e-14 * scale:
        return u
    for v in helpers:
        t = _stable_quadratic_root(space.q(u), space.omega(u, v), space.q(v))
        if t is None:
            continue
        cand = u + t * v
        if np.linalg.norm(cand) < 1e-8 * np.linalg.norm(u):
            continue
        # One polish step kills the rounding left by the root solve.
        wuv = space.omega(cand, v)
        if abs(wuv) > 1e-10:
            cand = cand - (space.q(cand) / (2 * wuv)) * v
        if abs(space.q(cand)) <= 1e-12 * float(np.linalg.norm(cand)) ** 2:
            return cand
    return None


def _fix_unit_sign(v: np.ndarray) -> np.ndarray:
    """Resolve the residual +-1 ambiguity of a q-normalized vector: flip so
    the first significant coordinate has positive real part (ties: +imag)."""
    idx = np.flatnonzero(np.abs(v) > 1e-12 * np.linalg.norm(v))
    lead = v[idx[0]]
    if lead.real < -1e-14 or (abs(lead.real) <= 1e-14 and lead.imag < 0):
        return -v
    return v


def _balanced(u: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale a pair to (alpha u, w / alpha), alpha = sqrt(|w| / |u|), so both
    get the same norm: unbalanced pairs grow entries that make the relative
    rank cut of the next omega-complement miscount its dimension."""
    alpha = np.sqrt(np.linalg.norm(w) / np.linalg.norm(u))
    return alpha * u, w / alpha


def _pair_from(space: FormedSpace, w_basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministically extract an adapted, norm-balanced hyperbolic pair
    from the span W of the orthonormal columns B of w_basis.  Candidates are
    the nonzero columns of the Hermitian projector ``B B^H``, nearest to W
    first (stable order of decreasing norm; index order was less accurate at
    high rank).  They depend on W only: for a coordinate W, standard vectors."""
    proj = w_basis @ w_basis.conj().T
    norms = np.linalg.norm(proj, axis=0)
    order = np.argsort(-norms, kind="stable")
    cand = proj[:, order[norms[order] > 1e-8]]
    m = cand.shape[1]
    u = None
    for k in range(m):
        u = _make_isotropic(space, cand[:, k], (cand[:, (k + i) % m] for i in range(1, m)))
        if u is not None:
            break
    if u is None:
        raise RuntimeError("could not locate an isotropic vector in the complement")
    pairings = u @ space.J @ cand
    j = int(np.argmax(np.abs(pairings)))
    if abs(pairings[j]) <= 1e-10 * np.linalg.norm(u):
        raise RuntimeError("no partner pairs with the isotropic vector (degenerate complement)")
    w = cand[:, j] / pairings[j]
    if space.eps == +1:
        w = w - (space.q(w) / 2) * u
    return _balanced(u, w)


def _unit_slot(space: FormedSpace, assigned: list[np.ndarray]) -> np.ndarray:
    """The vector h' with q(h') = 1 spanning the omega-complement of the
    completed pairs (d = 1), up to sign."""
    w_basis = _omega_complement(space, assigned)
    if w_basis.shape[1] != 1:
        raise RuntimeError("inconsistent complement dimension for the unit slot")
    hvec = w_basis[:, 0]
    qh = space.q(hvec)
    if abs(qh) < 1e-12:
        raise RuntimeError("degenerate unit slot in Witt completion")
    return hvec / principal_sqrt(qh)


def witt_complete(space: FormedSpace, pairs: Sequence[tuple[np.ndarray, np.ndarray]] = (), *,
                  tol: float = TOL_GROUP) -> np.ndarray:
    """Complete adapted hyperbolic pairs to a full adapted basis.

    ``pairs[k]`` supplies the vectors for the slots ``(e_{r-k}, f_{r-k})``,
    outermost first.  The result is the matrix whose columns are the completed
    basis in standard order, so ``witt_complete(space)`` is the identity and
    the returned T always satisfies ``T^T J T = J`` to rounding.  One SVD gives
    an orthonormal basis B of the omega-complement of the given pairs; each
    completed pair (u, w) deflates it to ``B nullspace([u w]^T J B)``.

    Raises ValueError when the supplied pairs fail the adapted Gram relations,
    and RuntimeError when a numerical step or the final Gram check fails.
    """
    k = len(pairs)
    if k > space.r:
        raise ValueError(f"got {k} pairs but the space only has r={space.r}")
    if space.n == 0:
        return np.zeros((0, 0), dtype=complex)
    given: list[np.ndarray] = []
    for (u, w) in pairs:
        u = np.asarray(u, dtype=complex).reshape(space.n)
        w = np.asarray(w, dtype=complex).reshape(space.n)
        given.append((u, w))

    if k:
        # Validate the adapted relations of everything supplied, in the order
        # (e'_r ... e'_{r-k+1}, f'_{r-k+1} ... f'_r) so the expected Gram is
        # exactly the corner space J(eps, 0, k).
        ordered = [u for u, _ in given] + [w for _, w in reversed(given)]
        got = space.gram(ordered)
        expected = make_space(space.eps, 0, k).J
        scale = max(1.0, float(max(np.linalg.norm(v) for v in ordered)) ** 2)
        err = np.abs(got - expected)
        if err.max() > 1e-8 * scale:
            names = [f"e'_{space.r - i}" for i in range(k)] + [f"f'_{space.r - k + 1 + i}" for i in range(k)]
            i, j = np.unravel_index(int(np.argmax(err)), err.shape)
            raise ValueError(
                f"pairs are not adapted: omega({names[i]}, {names[j]}) = {got[i, j]:.6g}, "
                f"expected {expected[i, j]:.6g}")

    e_cols: list[np.ndarray] = [u for u, _ in given]
    f_cols: list[np.ndarray] = [w for _, w in given]
    assigned = [v for uw in given for v in uw]

    w_basis = _omega_complement(space, assigned)
    for _ in range(space.r - k):
        u, w = _pair_from(space, w_basis)
        e_cols.append(u)
        f_cols.append(w)
        assigned.extend([u, w])
        null = nullspace(np.column_stack([u, w]).T @ space.J @ w_basis)
        if null.shape[1] != w_basis.shape[1] - 2:
            raise RuntimeError("deflating the complement by a completed pair did not remove two dimensions")
        w_basis = w_basis @ null

    cols = list(e_cols)
    if space.d == 1:
        cols.append(_fix_unit_sign(_unit_slot(space, assigned)))
    cols.extend(reversed(f_cols))

    t = np.column_stack(cols)
    res = group_residual(space, t)
    if res > max(tol, 1e-10):
        raise RuntimeError(f"Witt completion failed its Gram check (residual {res:.3e})")
    return t


# ----------------------------------------------------------------------
# Random elements
# ----------------------------------------------------------------------

def _normal_complex(rng: np.random.Generator, size) -> np.ndarray:
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def random_isotropic(space: FormedSpace, rng: np.random.Generator, tol: float = TOL_GENERIC) -> ProjPoint:
    """Random isotropic projective point (Gaussian coordinates; for eps=+1 the
    last f-coordinate is solved so that q(v) = 0)."""
    if space.eps == -1:
        return ProjPoint.create(space, _normal_complex(rng, space.n), tol)
    for _ in range(300):
        v = _normal_complex(rng, space.n)
        v[space.f_index(space.r)] = 0.0
        x = v[space.e_index(space.r)]
        if abs(x) < 0.3:
            continue
        v[space.f_index(space.r)] = -space.q(v) / (2 * x)
        return ProjPoint.create(space, v, tol)
    raise RuntimeError("failed to sample an isotropic vector (should be unreachable)")


def random_group_element(space: FormedSpace, rng: np.random.Generator) -> GroupElement:
    """Random isometry, built as a random adapted basis change.

    Samples a full adapted basis with Gaussian ingredients; no uniformity
    claim is made beyond covering a generic spread of the group.
    """
    assigned: list[np.ndarray] = []
    e_cols: list[np.ndarray] = []
    f_cols: list[np.ndarray] = []
    for _ in range(space.r):
        w_basis = _omega_complement(space, assigned)
        m = w_basis.shape[1]
        u = None
        for _attempt in range(50):
            raw = w_basis @ _normal_complex(rng, m)
            helpers = [w_basis @ _normal_complex(rng, m) for _ in range(3)]
            u = _make_isotropic(space, raw, helpers)
            if u is not None and np.linalg.norm(u) > 1e-6:
                u = u / np.linalg.norm(u)
                break
            u = None
        if u is None:
            raise RuntimeError("random isotropic search failed (degenerate complement?)")
        # Pairing functional of u on W-coordinates; its norm is the best
        # pairing any unit candidate can reach, so thresholds scale with it.
        phi = u @ space.J @ w_basis
        phi_norm = np.linalg.norm(phi)
        if phi_norm <= 1e-10:
            raise RuntimeError("degenerate complement in random partner search")
        w = None
        for _attempt in range(50):
            c = _normal_complex(rng, m)
            pairing = phi @ c
            if abs(pairing) > 1e-3 * phi_norm * np.linalg.norm(c):
                w = (w_basis @ c) / pairing
                break
        if w is None:
            raise RuntimeError("random partner search failed")
        if space.eps == +1:
            w = w - (space.q(w) / 2) * u
        u, w = _balanced(u, w)
        e_cols.append(u)
        f_cols.append(w)
        assigned.extend([u, w])
    cols = list(e_cols)
    if space.d == 1:
        hvec = _unit_slot(space, assigned)
        if rng.random() < 0.5:
            hvec = -hvec
        cols.append(hvec)
    cols.extend(reversed(f_cols))
    return GroupElement.create(space, np.column_stack(cols))


def embed_iota(small: FormedSpace, big: FormedSpace, g: GroupElement | np.ndarray) -> GroupElement:
    """Embed an isometry of V_r as one of V_{r+1} fixing e_{r+1} and f_{r+1}."""
    if (small.eps, small.d) != (big.eps, big.d) or big.r != small.r + 1:
        raise ValueError("embed_iota needs the same (eps, d) and r_big = r_small + 1")
    m = g.m if isinstance(g, GroupElement) else np.asarray(g, dtype=complex)
    out = np.zeros((big.n, big.n), dtype=complex)
    out[0, 0] = 1
    out[big.n - 1, big.n - 1] = 1
    out[1:big.n - 1, 1:big.n - 1] = m
    return GroupElement.create(big, out)
