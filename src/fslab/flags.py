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
classes of B rows of four flags at a table of index tuples.  One row-batched
B_n serves ``b_n``, ``cocycle_residual``, ``b4_so4_batch`` and the ``b-n``
sup problem, by three routes.  A batched test certifies general position
from the determinants of the n x n blocks of the sums with |J| = n.  Rows
whose every determinant clears sqrt(cut) n^(n/2) sum D of the cross-ratios
of those determinants over the n(n^2-1)/6 classes with |J| = n-2, with no
SVD; the guard keeps the cross-ratios' relative rounding near 1e-12.  Other
certified rows run the kernel on those classes, and the rest on all n^4.
One batched function makes the chains of boundary flags for
``BoundaryPoint.flag``, ``rho_flag`` and ``b4_so4_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .forms import RANK_RTOL, FormedSpace, GroupElement, make_space, normalize_projective
from .dilog import bloch_wigner, vol_p1, vol_p1_batch

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
        _check_independent(m, rtol)
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


def _check_independent(m: np.ndarray, rtol: float = RANK_RTOL) -> None:
    """``ValueError`` unless every (n, n) block of ``m`` has independent columns."""
    sv = np.linalg.svd(m, compute_uv=False).reshape(-1, m.shape[-1])
    rel = sv[:, -1] / np.where(sv[:, 0] == 0, np.inf, sv[:, 0])
    if (rel <= rtol).any():
        raise ValueError(f"flag vectors are not independent (relative smallest "
                         f"singular value {rel.min():.3e})")


def random_flag(n: int, rng: np.random.Generator) -> AffineFlag:
    """A Gaussian random flag (independent with probability one)."""
    for _ in range(50):
        m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        try:
            return AffineFlag.create(m)
        except ValueError:
            continue
    raise RuntimeError("could not draw an independent flag basis")


_CELLS = 1 << 10  # (row, index tuple) cells per batched SVD call, to bound memory


def _row_chunks(rows: np.ndarray, width: int):
    """``rows`` in pieces of at most _CELLS cells of ``width`` each."""
    step = max(1, _CELLS // width)
    return (rows[s:s + step] for s in range(0, len(rows), step))


@lru_cache(maxsize=None)
def _full_sums(n: int, k: int) -> np.ndarray:
    """Per J in {0..n}^k with |J| = n, the k*n stacked basis columns that
    span F_0^{j_0} + ... + F_{k-1}^{j_{k-1}}."""
    table = np.array([[i * n + t for i, j in enumerate(J) for t in range(j)]
                      for J in product(range(n + 1), repeat=k) if sum(J) == n])
    table.setflags(write=False)
    return table


def _general_rows(ortho: np.ndarray, rtol: float = _RANK_CUT) -> tuple[np.ndarray, np.ndarray]:
    """Which of B rows of k flags, by their (B, k, n, n) orthonormal bases,
    are in general position, and the (B, C) determinants of the n x n blocks
    of the sums with |J| = n, in ``_full_sums`` order.

    Only those blocks are tested: a sum with |J| < n is a subset of the
    columns of one, and dropping columns cannot lower the ratio of the
    smallest to the largest singular value.  Columns of unit length bound the
    largest by sqrt(n), so |det| / n^(n/2) bounds the ratio from below; a
    block clearing the cut by a factor 2 that way needs no SVD.
    """
    b, k, n, _ = ortho.shape
    # The basis columns as rows, gathered into (B, C, n, n) blocks.
    blocks = ortho.swapaxes(2, 3).reshape(b, k * n, n)[:, _full_sums(n, k)]
    dets = np.linalg.det(blocks)
    ok = np.abs(dets) > 2 * rtol * n ** (n / 2)
    if not ok.all():
        sv = np.linalg.svd(blocks[~ok], compute_uv=False)
        ok[~ok] = sv[:, -1] > rtol * sv[:, 0]
    return ok.all(axis=1), dets


def general_position(flags: Sequence[AffineFlag], *, rtol: float = _RANK_CUT) -> bool:
    """Whether every sum of flag subspaces has the maximal dimension.

    True iff dim(F_0^{j_0} + ... + F_{k-1}^{j_{k-1}}) = j_0 + ... + j_{k-1}
    for all index tuples with sum <= n, by numerical rank.  Flags of
    different dimensions raise ``ValueError``.
    """
    return bool(_general_rows(np.stack([f.ortho for f in flags])[None], rtol)[0][0])


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


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left factors and singular values of a stack of blocks.  LAPACK's SVD
    can fail to converge on a wide block near rank loss; the conjugate
    transposes are then tried, and ``RuntimeError`` raised if they fail too."""
    try:
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        return u, s
    except np.linalg.LinAlgError:
        try:
            _, s, vh = np.linalg.svd(a.conj().swapaxes(-1, -2), full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"the SVD of {a.shape[-2]} x {a.shape[-1]} sigma_3 blocks "
                               "did not converge in either orientation") from exc
        return vh.conj().swapaxes(-1, -2), s


def _sigma3(ortho: np.ndarray, vecs: np.ndarray, J: np.ndarray):
    """The sigma_3 classes of B rows of four flags at C index tuples.

    ``ortho`` and ``vecs`` stack the four flags' orthonormal bases and chain
    vectors as (B, 4, n, n) blocks; ``J`` is a (C, 4) table.  The
    denominator F_0^{j_0} + ... is spanned by the first j_i columns of each
    basis, one SVD batch per |J| (none for |J| = 0).  The quotient is the
    orthogonal complement of the denominator; the images are the chain
    vectors v_i^{j_i+1} projected there, and they span it because the
    numerator is the denominator plus their span.

    Returns ``(m, images, scale, plane, vols)``, each with leading axes
    (B, C): the quotient dimension; the image coordinates, (min(n, 4), 4)
    blocks whose first m rows are those in an orthonormal basis of the
    quotient; the magnitude of the chain vectors, the reference for deciding
    which image components are numerically zero; whether the quotient is a
    plane with no vanishing image; and the ideal volume of those planes.
    """
    b, _, n, _ = ortho.shape
    size = J.sum(axis=1)
    # Each class's kept basis columns, in order, among the 4n of the row.
    keep = (np.arange(n) < J[:, :, None]).reshape(len(J), 4 * n)
    kept = np.argsort(~keep, axis=1, kind="stable")
    basis = ortho.swapaxes(2, 3).reshape(b, 4 * n, n)
    raw = vecs.swapaxes(2, 3).reshape(b, 4 * n, n)[:, np.arange(4) * n + J].swapaxes(2, 3)
    scale = np.linalg.norm(raw, axis=(2, 3))
    proj = raw.copy()
    for width in set(size[size > 0].tolist()):
        group = size == width
        den = basis[:, kept[group, :width]].swapaxes(2, 3)               # (B, C_w, n, |J|)
        u, sv = _svd(den)
        span = u * (sv > _RANK_CUT * sv[..., :1])[..., None, :]
        proj[:, group] -= span @ (span.conj().swapaxes(2, 3) @ raw[:, group])
    uw, sw = _svd(proj)
    # Rank relative to the chain vectors' own magnitude: when the projection
    # annihilates them (numerator = denominator) the residue is rounding noise
    # and must count as rank zero, not as a full-rank spray of noise.
    m = np.count_nonzero(sw > _RANK_CUT * scale[..., None], axis=2)
    images = uw.conj().swapaxes(2, 3) @ proj
    norms = np.linalg.norm(images[:, :, :2], axis=2)                    # (B, C, 4)
    plane = (m == 2) & (norms.min(axis=2) > _RANK_CUT * np.maximum(scale, 1e-300))
    vols = np.zeros(plane.shape)
    if plane.any():
        vols[plane] = vol_p1_batch(images[plane][:, :2].swapaxes(1, 2))  # points as rows
    return m, images, scale, plane, vols


@lru_cache(maxsize=None)
def _all_j(n: int) -> np.ndarray:
    """Every index tuple in {0..n-1}^4, as a read-only (n^4, 4) array."""
    js = np.array(list(product(range(n), repeat=4)))
    js.setflags(write=False)
    return js


@lru_cache(maxsize=None)
def _cross_blocks(n: int) -> np.ndarray:
    """Per J in {0..n-1}^4 with |J| = n-2, in ``_all_j`` order, the rows of
    ``_full_sums(n, 4)`` for J+e_0+e_2, J+e_1+e_3, J+e_0+e_3 and J+e_1+e_2,
    as a read-only (C, 4) array."""
    row = {K: r for r, K in enumerate(K for K in product(range(n + 1), repeat=4) if sum(K) == n)}
    step = np.eye(4, dtype=int)
    table = np.array([[row[tuple(J + step[i] + step[k])] for i, k in ((0, 2), (1, 3), (0, 3), (1, 2))]
                      for J in _all_j(n) if J.sum() == n - 2])
    table.setflags(write=False)
    return table


def _b_rows(ortho: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B_n of B rows of four flags, from (B, 4, n, n) stacks of orthonormal
    bases and chain vectors, and which rows are in general position.

    Three routes.  Off general position every class may contribute, and only
    the sum of all n^4 stays a cocycle.  In it only the classes with
    |J| = n-2 do, each a plane with four nonzero images x_i.  With Delta(K)
    the determinants of ``_general_rows``, Delta(J+e_i+e_k) is
    +-det_W c_i c_k det(x_i, x_k), as q_i^{j_i+1} maps to c_i x_i; the signs
    and factors cancel in D(Delta_02 Delta_13 / (Delta_03 Delta_12)), the
    class's volume.  Rows whose every |Delta| clears sqrt(cut) n^(n/2),
    which puts their blocks' singular-value ratios above sqrt(cut) and so
    the cross-ratios' relative rounding near 1e-12, take it with no SVD;
    other general rows run the sigma_3 kernel on those classes.
    """
    n = ortho.shape[-1]
    general = np.empty(len(ortho), dtype=bool)
    dets = np.empty((len(ortho), len(_full_sums(n, 4))), dtype=complex)
    for rows in _row_chunks(np.arange(len(ortho)), dets.shape[1]):
        general[rows], dets[rows] = _general_rows(ortho[rows])
    clear = general & (np.abs(dets) > np.sqrt(_RANK_CUT) * n ** (n / 2)).all(axis=1)
    total = np.zeros(len(ortho))
    if clear.any():
        d = dets[clear][:, _cross_blocks(n)]
        total[clear] = bloch_wigner(d[..., 0] * d[..., 1] / (d[..., 2] * d[..., 3])).sum(axis=1)
    every = _all_j(n)
    for rows_of, js in ((general & ~clear, every[every.sum(axis=1) == n - 2]), (~general, every)):
        for rows in _row_chunks(np.flatnonzero(rows_of), len(js)):
            total[rows] = _sigma3(ortho[rows], vecs[rows], js)[4].sum(axis=1)
    return total, general


def _b_chains(vecs: np.ndarray) -> np.ndarray:
    """B_n of rows of four flags by their (B, 4, n, n) chain matrices."""
    _check_independent(vecs)
    return _b_rows(np.linalg.qr(vecs)[0], vecs)[0]


def _row(flags: Sequence[AffineFlag], caller: str, k: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """k flags as one row: (1, k, n, n) stacks of orthonormal bases and chain vectors."""
    flags = list(flags)
    if len(flags) != k:
        raise ValueError(f"{caller} takes exactly {k} flags")
    return np.stack([f.ortho for f in flags])[None], np.stack([f.vecs for f in flags])[None]


def t_j(flags: Sequence[AffineFlag], J: Sequence[int]) -> Sigma3Class:
    """The sigma_3 class of four flags at the index tuple J in {0..n-1}^4:
    the quotient (F_0^{j_0+1} + ...) / (F_0^{j_0} + ...) with the images of
    the chain vectors v_i^{j_i+1} in it."""
    ortho, vecs = _row(flags, "t_j")
    n = ortho.shape[-1]
    J = tuple(int(j) for j in J)
    if len(J) != 4 or any(j < 0 or j >= n for j in J):
        raise ValueError(f"index tuple must lie in {{0..{n - 1}}}^4, got {J}")
    m, images, scale, _, _ = (x[0, 0] for x in _sigma3(ortho, vecs, np.array([J])))
    return Sigma3Class(m=int(m), images=images[:m], scale=float(scale))


def vol_sigma3(c: Sigma3Class) -> float:
    """Ideal volume of a sigma_3 class: vol_p1 of the four image lines when
    the quotient is a plane and no image vanishes, else 0."""
    if c.m != 2 or not c.nonzero_images():
        return 0.0
    return vol_p1(*c.images.T)


def b_n_j(flags: Sequence[AffineFlag], J: Sequence[int]) -> float:
    """The single-J contribution to B_n."""
    return vol_sigma3(t_j(flags, J))


def b_n(flags: Sequence[AffineFlag]) -> float:
    """The volume cocycle: sum of vol_sigma3 over all J in {0..n-1}^4.

    Alternating and GL_n(C)-invariant; for flags in general position only the
    index tuples with |J| = n-2 contribute, and only those are evaluated.
    """
    return float(_b_rows(*_row(flags, "b_n"))[0][0])


def contributing_j(flags: Sequence[AffineFlag]) -> list[tuple[int, ...]]:
    """Index tuples whose sigma_3 class is structurally nontrivial (quotient
    a plane, all images nonzero) — exactly n(n^2-1)/6 in general position."""
    ortho, vecs = _row(flags, "contributing_j")
    js = _all_j(ortho.shape[-1])
    plane = _sigma3(ortho, vecs, js)[3][0]
    return [tuple(int(j) for j in J) for J in js[plane]]


def cocycle_residual(flags: Sequence[AffineFlag]) -> float:
    """The alternating face sum of B_n over a 5-tuple of flags (vanishes on
    general-position tuples: B_n is a strict cocycle)."""
    ortho, vecs = _row(flags, "cocycle_residual", 5)
    faces = [[j for j in range(5) if j != i] for i in range(5)]
    values, general = _b_rows(ortho[0, faces], vecs[0, faces])
    if not general.all():
        raise ValueError(f"face {int(np.argmin(general))} is not in general position")
    return float(np.sum(values * (-1.0) ** np.arange(5)))


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
    eye = np.eye(4, dtype=complex)  # columns e2, e1, f1, f2
    return eye[:, [2, 3]], eye[:, [0, 2]]


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

@lru_cache(maxsize=1)
def _so4_fixed() -> tuple[AffineFlag, AffineFlag, AffineFlag]:
    return flag_infinity(), standard_flags_so4(0, 0), standard_flags_so4(1, 1)


def b4_so4(a: complex, b: complex) -> float:
    """B_4 on (F_inf, F_0, F_1, F_(a,b)) — closed form 2 (D(a) + D(b))."""
    f_inf, f0, f1 = _so4_fixed()
    return b_n([f_inf, f0, f1, standard_flags_so4(a, b)])


def b4_so4_batch(a, b) -> np.ndarray:
    """Vectorized b4_so4 over arrays of boundary parameters.

    Builds the varying flags with the same chain function as the scalar path
    and evaluates all rows with the row-batched B_n, so a row off general
    position (a or b in {0, 1}, for example) sums every class, as the scalar
    path does.
    """
    a, b = _params(a, b)
    shape, a, b = a.shape, a.ravel(), b.ravel()
    phi = np.stack([b, np.ones_like(a), a * b, -a], axis=1)  # BoundaryPoint.vector, batched
    chain = _flag_chains(phi, *boundary_lines(a, b))
    fixed = [np.broadcast_to(x, (a.size, 3, 4, 4)) for x in _row(_so4_fixed(), "b4_so4_batch", 3)]
    ortho = np.concatenate([fixed[0], np.linalg.qr(chain)[0][:, None]], axis=1)
    vecs = np.concatenate([fixed[1], chain[:, None]], axis=1)
    return _b_rows(ortho, vecs)[0].reshape(shape)
