"""Complete affine flags in C^n and the volume cocycle B_n.

A 4-tuple of flags determines, for each index tuple J, a quotient
configuration of four lines (the sigma_3 class); when that quotient is a
plane, the four lines have an ideal-tetrahedron volume.  B_n sums these
volumes over all J.  It is alternating, GL_n(C)-invariant, bounded, and a
strict cocycle on 5-tuples of flags in general position.

The second half of the module specializes n = 4 to the rank-2 even
orthogonal space: boundary points are pairs of ruling planes (l+_a, l-_b),
each pair determines a flag, and the restricted cocycle has the closed form
B_4(F_inf, F_0, F_1, F_(a,b)) = 2 (D(a) + D(b)).

Each construction is written once.  One batched sigma_3 kernel computes the
classes of any number of (flags, J) pairs, with every denominator given as
the flags' orthonormal bases side by side and the columns past j_i zeroed;
``t_j``, ``b_n``, ``contributing_j`` and ``b4_so4_batch`` all call it.  One
batched function makes the chains of boundary flags; ``BoundaryPoint.flag``,
``rho_flag`` and ``b4_so4_batch`` all call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .forms import RANK_RTOL, FormedSpace, GroupElement, make_space, normalize_projective
from .dilog import vol_p1, vol_p1_batch

_RANK_CUT = 1e-8  # relative singular-value threshold for all rank decisions


# ----------------------------------------------------------------------
# Flags
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AffineFlag:
    """A complete affine flag: ordered vectors v^1..v^n whose prefixes span
    the flag subspaces F^j = span(v^1, ..., v^j)."""

    vecs: np.ndarray = field(repr=False)  # (n, n), columns are v^1..v^n

    @classmethod
    def create(cls, vectors, *, rtol: float = RANK_RTOL) -> "AffineFlag":
        m = np.asarray(vectors, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"a flag on C^n needs an n x n matrix, got {m.shape}")
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[0] == 0 or sv[-1] <= rtol * sv[0]:
            raise ValueError(
                f"flag vectors are not independent (relative smallest singular "
                f"value {0.0 if sv[0] == 0 else sv[-1] / sv[0]:.3e})")
        return cls(vecs=m)

    @property
    def n(self) -> int:
        return self.vecs.shape[0]

    @cached_property
    def ortho(self) -> np.ndarray:
        """Orthonormal basis whose first j columns span F^j, for every j."""
        q, _ = np.linalg.qr(self.vecs)
        return q

    def prefix(self, j: int) -> np.ndarray:
        """Orthonormal basis of F^j (an (n, j) block)."""
        return self.ortho[:, :j]

    def vector(self, j: int) -> np.ndarray:
        """The chain vector v^{j+1} extending F^j to F^{j+1} (0-indexed j)."""
        return self.vecs[:, j]

    def __repr__(self) -> str:
        return f"AffineFlag(n={self.n})"


def random_flag(n: int, rng: np.random.Generator) -> AffineFlag:
    """A Gaussian random flag (independent with probability one)."""
    for _ in range(50):
        m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        try:
            return AffineFlag.create(m)
        except ValueError:
            continue
    raise RuntimeError("could not draw an independent flag basis")


def general_position(flags: Sequence[AffineFlag], *, rtol: float = _RANK_CUT) -> bool:
    """Whether every sum of flag subspaces has the maximal dimension.

    True iff dim(F_0^{j_0} + ... + F_{k-1}^{j_{k-1}}) = j_0 + ... + j_{k-1}
    for all index tuples with sum <= n, by numerical rank.
    """
    flags = list(flags)
    n = flags[0].n
    if any(f.n != n for f in flags):
        raise ValueError("flags must share the same dimension")
    for J in product(range(n + 1), repeat=len(flags)):
        s = sum(J)
        if s == 0 or s > n:
            continue
        stack = np.concatenate([f.prefix(j) for f, j in zip(flags, J)], axis=1)
        sv = np.linalg.svd(stack, compute_uv=False)
        if sv[-1] <= rtol * sv[0]:
            return False
    return True


def random_flag_tuple(n: int, k: int, rng: np.random.Generator, *,
                      max_tries: int = 60) -> tuple[AffineFlag, ...]:
    """k random flags in general position."""
    for _ in range(max_tries):
        flags = tuple(random_flag(n, rng) for _ in range(k))
        if general_position(flags):
            return flags
    raise RuntimeError("could not draw flags in general position")


# ----------------------------------------------------------------------
# The sigma_3 class and the cocycle B_n
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Sigma3Class:
    """The quotient configuration attached to four flags and an index tuple.

    ``m`` is the dimension of the quotient (sum of the (j_i+1)-prefixes
    modulo the sum of the j_i-prefixes) and ``images`` holds the coordinates
    of the four chain vectors in an orthonormal basis of that quotient,
    as an (m, 4) block whose columns span C^m.  ``scale`` is the magnitude of
    the chain vectors before projection — the reference for deciding which
    image components are numerically zero.
    """

    m: int
    images: np.ndarray = field(repr=False)  # (m, 4)
    scale: float = 1.0

    def nonzero_images(self, *, rtol: float = _RANK_CUT) -> bool:
        if self.m == 0:
            return False
        norms = np.linalg.norm(self.images, axis=0)
        return bool(norms.min() > rtol * max(self.scale, 1e-300))


def _sigma3(ortho: np.ndarray, vecs: np.ndarray, J: np.ndarray):
    """The sigma_3 classes of K (flag 4-tuple, index tuple) pairs in one batch.

    ``ortho`` and ``vecs`` stack the four flags' orthonormal bases and chain
    vectors as (K, 4, n, n) blocks (a leading 1 broadcasts); ``J`` is (K, 4).
    The denominator F_0^{j_0} + ... is the four bases side by side with the
    columns past j_i zeroed (columns that no class of the batch keeps are
    left out), so one SVD batch covers every |J| and |J| = 0 is a block of
    rank 0.  The quotient is realized on the orthogonal complement of the
    denominator; the images are the chain vectors v_i^{j_i+1} projected
    there, and they span the whole quotient because the numerator is the
    denominator plus the span of those chain vectors.

    Returns ``(m, images, scale, plane, vols)``, each with leading axis K:
    the quotient dimension; the image coordinates, (min(n, 4), 4) blocks whose
    first m rows are those in an orthonormal basis of the quotient; the
    magnitude of the chain vectors, the reference for deciding which image
    components are numerically zero; whether the quotient is a plane with no
    vanishing image; and the ideal volume of those planes (0 elsewhere).
    """
    k = len(J)
    keep = np.arange(ortho.shape[-1]) < J[:, :, None]                # (K, 4, n)
    used = keep.any(axis=0)
    den = np.moveaxis(ortho, 1, 2)[:, :, used] * keep[:, None, used]  # (K, n, columns)
    raw = np.take_along_axis(vecs, J[:, :, None, None], axis=3)[..., 0].swapaxes(1, 2)
    scale = np.linalg.norm(raw, axis=(1, 2))
    u, sv, _ = np.linalg.svd(den, full_matrices=False)
    span = u * (sv > _RANK_CUT * np.maximum(sv[:, :1], 1e-300))[:, None, :]
    proj = raw - span @ (span.conj().swapaxes(1, 2) @ raw)
    uw, sw, _ = np.linalg.svd(proj, full_matrices=False)
    # Rank relative to the chain vectors' own magnitude: when the projection
    # annihilates them (numerator = denominator) the residue is rounding noise
    # and must count as rank zero, not as a full-rank spray of noise.
    m = np.count_nonzero(sw > _RANK_CUT * scale[:, None], axis=1)
    images = uw.conj().swapaxes(1, 2) @ proj
    norms = np.linalg.norm(images[:, :2], axis=1)                    # (K, 4)
    plane = (m == 2) & (norms.min(axis=1) > _RANK_CUT * np.maximum(scale, 1e-300))
    vols = np.zeros(k)
    if plane.any():
        vols[plane] = vol_p1_batch(images[plane, :2].swapaxes(1, 2))  # points as rows
    return m, images, scale, plane, vols


@lru_cache(maxsize=None)
def _all_j(n: int) -> np.ndarray:
    """Every index tuple in {0..n-1}^4, as a read-only (n^4, 4) array."""
    js = np.array(list(product(range(n), repeat=4)))
    js.setflags(write=False)
    return js


def _four(flags: Sequence[AffineFlag], caller: str) -> list[AffineFlag]:
    flags = list(flags)
    if len(flags) != 4:
        raise ValueError(f"{caller} takes exactly four flags")
    return flags


def _classes(flags: list[AffineFlag], J):
    """The sigma_3 kernel on one 4-tuple of flags at the index tuples J."""
    ortho = np.stack([f.ortho for f in flags])[None]
    vecs = np.stack([f.vecs for f in flags])[None]
    return _sigma3(ortho, vecs, np.asarray(J).reshape(-1, 4))


def t_j(flags: Sequence[AffineFlag], J: Sequence[int]) -> Sigma3Class:
    """The sigma_3 class of four flags at the index tuple J in {0..n-1}^4:
    the quotient (F_0^{j_0+1} + ...) / (F_0^{j_0} + ...) with the images of
    the chain vectors v_i^{j_i+1} in it."""
    flags = _four(flags, "t_j")
    n = flags[0].n
    J = tuple(int(j) for j in J)
    if len(J) != 4 or any(j < 0 or j >= n for j in J):
        raise ValueError(f"index tuple must lie in {{0..{n - 1}}}^4, got {J}")
    m, images, scale, _, _ = _classes(flags, J)
    return Sigma3Class(m=int(m[0]), images=images[0, :m[0]], scale=float(scale[0]))


def vol_sigma3(c: Sigma3Class) -> float:
    """Ideal volume of a sigma_3 class: vol_p1 of the four image lines when
    the quotient is a plane and no image vanishes, else 0."""
    if c.m != 2 or not c.nonzero_images():
        return 0.0
    w = c.images
    return vol_p1(w[:, 0], w[:, 1], w[:, 2], w[:, 3])


def b_n_j(flags: Sequence[AffineFlag], J: Sequence[int]) -> float:
    """The single-J contribution to B_n."""
    return vol_sigma3(t_j(flags, J))


def b_n(flags: Sequence[AffineFlag]) -> float:
    """The volume cocycle: sum of vol_sigma3 over all J in {0..n-1}^4.

    Alternating and GL_n(C)-invariant; for flags in general position only the
    index tuples with |J| = n-2 contribute.
    """
    flags = _four(flags, "b_n")
    return float(_classes(flags, _all_j(flags[0].n))[4].sum())


def contributing_j(flags: Sequence[AffineFlag]) -> list[tuple[int, ...]]:
    """Index tuples whose sigma_3 class is structurally nontrivial (quotient
    a plane, all images nonzero) — exactly n(n^2-1)/6 in general position."""
    flags = _four(flags, "contributing_j")
    js = _all_j(flags[0].n)
    plane = _classes(flags, js)[3]
    return [tuple(int(j) for j in J) for J in js[plane]]


def cocycle_residual(flags: Sequence[AffineFlag]) -> float:
    """The alternating face sum of B_n over a 5-tuple of flags (vanishes on
    general-position tuples: B_n is a strict cocycle)."""
    flags = list(flags)
    if len(flags) != 5:
        raise ValueError("cocycle_residual takes exactly five flags")
    for i in range(5):
        face = [f for j, f in enumerate(flags) if j != i]
        if not general_position(face):
            raise ValueError(f"face {i} is not in general position")
    total = 0.0
    for i in range(5):
        face = [f for j, f in enumerate(flags) if j != i]
        total += (-1.0) ** i * b_n(face)
    return total


# ----------------------------------------------------------------------
# The rank-2 even orthogonal boundary: ruling planes and their flags
# ----------------------------------------------------------------------

def so4_space() -> FormedSpace:
    """The rank-2 even orthogonal formed space, basis (e2, e1, f1, f2)."""
    return make_space(+1, 0, 2)


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary point of the rank-2 even orthogonal space: the parameters
    (a, b) of a pair of ruling planes (l+_a, l-_b)."""

    a: complex
    b: complex

    def lines(self) -> tuple[np.ndarray, np.ndarray]:
        return boundary_lines(self.a, self.b)

    def vector(self) -> np.ndarray:
        """The intersection line l+_a ∩ l-_b (an isotropic vector)."""
        a, b = self.a, self.b
        return np.array([b, 1.0, a * b, -a], dtype=complex)

    def flag(self, *, variant: str = "plus") -> AffineFlag:
        lplus, lminus = self.lines()
        first, second = (lplus, lminus) if variant == "plus" else (lminus, lplus)
        # The intersection line, in closed form, starts the chain.
        return AffineFlag.create(_flag_chains(self.vector()[None], first[None], second[None])[0])


def _params(a, b) -> tuple[np.ndarray, np.ndarray]:
    return np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def boundary_lines(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Bases of the two ruling planes through the boundary point (a, b):
    l+_a = <e1 - a f2, e2 + a f1> and l-_b = <e1 + b e2, b f1 - f2>, each
    totally isotropic, as (4, 2) column blocks in the basis (e2, e1, f1, f2).
    Arrays of parameters give (..., 4, 2) stacks."""
    a, b = _params(a, b)
    one, zero = np.ones_like(a), np.zeros_like(a)

    def block(rows):
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

    lplus = block([(zero, one), (one, zero), (zero, a), (-a, zero)])
    lminus = block([(b, zero), (one, zero), (zero, b), (zero, np.full_like(a, -1))])
    return lplus, lminus


def infinity_lines() -> tuple[np.ndarray, np.ndarray]:
    """The ruling planes at infinity: l+ = <f1, f2>, l- = <e2, f1>."""
    lplus = np.zeros((4, 2), dtype=complex)
    lplus[2, 0] = 1  # f1
    lplus[3, 1] = 1  # f2
    lminus = np.zeros((4, 2), dtype=complex)
    lminus[0, 0] = 1  # e2
    lminus[2, 1] = 1  # f1
    return lplus, lminus


def _flag_chains(v1: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Chain vectors of B boundary flags <v1> ⊂ first ⊂ first + second ⊂ C^4.

    ``v1`` is (B, 4) and the plane bases are (B, 4, 2).  Each step appends
    the first generator of its pool — (first, second, standard basis), then
    (second, first, standard basis), then the standard basis — whose residual
    off the chain so far exceeds 1e-6 of its norm, else the one with the
    largest residual.  Returns the (B, 4, 4) chain matrices.
    """
    rows = np.arange(len(v1))
    eye = np.broadcast_to(np.eye(4, dtype=complex), (len(v1), 4, 4))
    chain = v1[:, :, None]
    for pool in (np.concatenate([first, second, eye], axis=2),
                 np.concatenate([second, first, eye], axis=2), eye):
        q, _ = np.linalg.qr(chain)
        off = pool - q @ (q.conj().swapaxes(1, 2) @ pool)
        res = np.linalg.norm(off, axis=1) / np.maximum(np.linalg.norm(pool, axis=1), 1e-300)
        good = res > 1e-6
        pick = np.where(good.any(axis=1), good.argmax(axis=1), res.argmax(axis=1))
        if np.any(res[rows, pick] <= 1e-12):
            raise ValueError("could not extend the flag chain (degenerate planes)")
        chain = np.concatenate([chain, pool[rows, :, pick][:, :, None]], axis=2)
    return chain


def rho_flag(lplus: np.ndarray, lminus: np.ndarray, *, variant: str = "plus") -> AffineFlag:
    """The flag of a pair of transverse ruling planes:

        <l+ ∩ l->  ⊂  l+  ⊂  l+ + l-  ⊂  C^4

    (``variant="minus"`` puts l- second instead).  Generators are chosen
    deterministically from the plane bases, falling back to alternates and
    finally to standard basis vectors when a candidate fails to extend."""
    if variant not in ("plus", "minus"):
        raise ValueError("variant must be 'plus' or 'minus'")
    first, second = (lplus, lminus) if variant == "plus" else (lminus, lplus)
    first = np.asarray(first, dtype=complex)
    second = np.asarray(second, dtype=complex)
    # Intersection line: null combination of the stacked bases.
    stack = np.concatenate([first, -second], axis=1)
    _, sv, vh = np.linalg.svd(stack)
    if sv[-1] > _RANK_CUT * sv[0]:
        raise ValueError("the two planes do not intersect in a line")
    coef = vh[-1].conj()
    cand1 = first @ coef[:2]
    cand2 = second @ coef[2:]
    v1 = cand1 if np.linalg.norm(cand1) >= np.linalg.norm(cand2) else cand2
    if np.linalg.norm(v1) < 1e-12:
        raise ValueError("degenerate plane bases")
    v1 = normalize_projective(v1)
    return AffineFlag.create(_flag_chains(v1[None], first[None], second[None])[0])


def flag_infinity() -> AffineFlag:
    """The flag at infinity: <f1> ⊂ <f1, f2> ⊂ <f1, f2, e2> ⊂ C^4."""
    return rho_flag(*infinity_lines())


def standard_flags_so4(a: complex, b: complex) -> AffineFlag:
    """The flag of the boundary point (a, b):

        <phi_ab>  ⊂  <phi_ab, e1 - a f2>  ⊂  <phi_ab, e1 - a f2, e1 + b e2>  ⊂  C^4

    with phi_ab = e1 + b e2 - a f2 + a b f1, falling back to the alternate
    plane generators whenever a displayed generator fails to extend (for
    example at a = 0 or b = 0).  Defined for all finite (a, b); the flag at
    infinity is ``flag_infinity()``.
    """
    return BoundaryPoint(complex(a), complex(b)).flag()


def flip_to_special(g: GroupElement, *, tol: float = 1e-6) -> GroupElement:
    """Force determinant +1 by composing with the swap e1 <-> f1 when needed.

    Elements of determinant -1 exchange the two ruling families; composing
    with the swap (itself an isometry of determinant -1) lands back in the
    special group, which preserves each family.
    """
    det = g.det()
    if abs(det - 1) <= tol:
        return g
    if abs(det + 1) > tol:
        raise ValueError(f"determinant {det:.6g} is not +-1; not an isometry?")
    space = g.space
    if (space.eps, space.d) != (+1, 0):
        raise ValueError("the ruling swap lives in the even orthogonal case")
    swap = np.eye(space.n, dtype=complex)
    i, j = space.e_index(1), space.f_index(1)
    swap[[i, j]] = swap[[j, i]]
    return GroupElement.create(space, g.m @ swap)


# ----------------------------------------------------------------------
# The restricted cocycle and its batched evaluator
# ----------------------------------------------------------------------

_REF_AB = (0.3172 + 0.4418j, -0.6131 + 0.2212j)


@lru_cache(maxsize=1)
def _so4_fixed() -> tuple[AffineFlag, AffineFlag, AffineFlag]:
    return flag_infinity(), standard_flags_so4(0, 0), standard_flags_so4(1, 1)


@lru_cache(maxsize=1)
def _so4_contributing() -> tuple[tuple[int, ...], ...]:
    """The index tuples contributing to the restricted cocycle, computed once
    on a reference generic boundary point."""
    f_inf, f0, f1 = _so4_fixed()
    flags = [f_inf, f0, f1, standard_flags_so4(*_REF_AB)]
    return tuple(contributing_j(flags))


def b4_so4(a: complex, b: complex) -> float:
    """B_4 on (F_inf, F_0, F_1, F_(a,b)) — closed form 2 (D(a) + D(b))."""
    f_inf, f0, f1 = _so4_fixed()
    return b_n([f_inf, f0, f1, standard_flags_so4(a, b)])


def b4_so4_batch(a, b) -> np.ndarray:
    """Vectorized b4_so4 over arrays of boundary parameters.

    Builds the varying flags with the same chain function as the scalar path
    and runs the sigma_3 kernel over the contributing index tuples only, one
    tuple at a time over all rows; degenerate rows give 0 exactly as in the
    scalar path.
    """
    a, b = _params(a, b)
    shape = a.shape
    a, b = a.ravel(), b.ravel()
    nb = a.size
    lplus, lminus = boundary_lines(a, b)
    phi = np.stack([b, np.ones_like(a), a * b, -a], axis=1)  # BoundaryPoint.vector, batched
    chain = _flag_chains(phi, lplus, lminus)
    q_var, _ = np.linalg.qr(chain)
    fixed = _so4_fixed()
    ortho = np.concatenate([np.broadcast_to(np.stack([f.ortho for f in fixed]), (nb, 3, 4, 4)),
                            q_var[:, None]], axis=1)
    vecs = np.concatenate([np.broadcast_to(np.stack([f.vecs for f in fixed]), (nb, 3, 4, 4)),
                           chain[:, None]], axis=1)
    total = np.zeros(nb)
    for J in _so4_contributing():
        total += _sigma3(ortho, vecs, np.broadcast_to(J, (nb, 4)))[4]
    return total.reshape(shape)
