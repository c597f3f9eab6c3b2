"""Canonical reduction of isotropic configurations.

A sufficiently generic tuple of 3, 4 or 5 pairwise non-orthogonal isotropic
lines can be moved by a single isometry onto a canonical model tuple that
depends only on the tuple's invariants: on nothing at all for triples, on the
two cross-ratios for quadruples, and on the face cross-ratio coordinates for
quintuples.  This module builds the model tuples (``phi2``, ``phi3``,
``phi4``), computes the reducing group element, and reports residuals and a
condition estimate for every reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forms import (
    TOL_GENERIC,
    TOL_REDUCE,
    FormedSpace,
    GroupElement,
    chordal_distance,
    complement_hat,
    embed_iota,
    make_space,
    principal_sqrt,
    witt_complete,
)
from .crossratios import (
    ConfigTuple,
    GenericityError,
    cross_ratios4,
    delta_disc,
    delta_sqrt,
    derived_c2,
    genericity,
    phi_eta,
    pi4,
    psi_eta,
)

#: Reductions whose condition estimate exceeds this are flagged ill-conditioned.
CONDITION_LIMIT = 1e8

_PARAM_FLOOR = 1e-12


def min_rank(eps: int, d: int) -> int:
    """Smallest rank r for which the canonical triple exists."""
    return 2 if (eps, d) == (+1, 0) else 1


# ----------------------------------------------------------------------
# Canonical model tuples
# ----------------------------------------------------------------------

def x0_vector(space: FormedSpace) -> np.ndarray:
    """The inner base vector x0: orthogonal to e_r and f_r, q(x0) = -(1+eps)."""
    if space.r >= 2:
        return space.e(space.r - 1) - space.f(space.r - 1)
    if space.r == 1 and (space.eps, space.d) == (+1, 1):
        return 1j * np.sqrt(2.0) * space.h()
    if space.r == 1 and (space.eps, space.d) == (-1, 0):
        return np.zeros(space.n, dtype=complex)
    raise ValueError(
        f"no canonical triple in rank r={space.r} for (eps, d) = ({space.eps}, {space.d})")


def _require_param_nonzero(name: str, z: complex) -> None:
    if abs(complex(z)) < _PARAM_FLOOR:
        raise GenericityError(
            f"coordinate {name} = {complex(z):.3e} is numerically zero", failing=name)


def _require_delta(name: str, z1: complex, z2: complex, eps: int) -> None:
    dd = complex(delta_disc(z1, z2, eps))
    if abs(dd) < _PARAM_FLOOR:
        raise GenericityError(
            f"discriminant Delta({name}) = {dd:.3e} is numerically zero",
            failing=f"delta({name})")


def phi2(space: FormedSpace) -> ConfigTuple:
    """The canonical triple (e_r, f_r, e_r + x0 + f_r)."""
    v = space.e(space.r) + x0_vector(space) + space.f(space.r)
    return ConfigTuple.from_vectors(
        space, [space.e(space.r), space.f(space.r), v], normalized=True)


def phi3(space: FormedSpace, a1: complex, a2: complex) -> ConfigTuple:
    """The canonical quadruple with cross-ratio coordinates (a1, a2).

    Defined for r >= 2 and (a1, a2) with a1, a2 and Delta(a1, a2) nonzero.
    """
    if space.r < 2:
        raise ValueError(f"phi3 needs r >= 2, got r={space.r}")
    eps = space.eps
    _require_param_nonzero("a1", a1)
    _require_param_nonzero("a2", a2)
    _require_delta("a", a1, a2, eps)
    base = phi2(space)
    r = space.r
    v = (a1 * space.e(r)
         + phi_eta(a1, a2, eps, -1) * space.e(r - 1)
         + eps * phi_eta(a1, a2, eps, +1) * space.f(r - 1)
         + eps * a2 * space.f(r))
    vectors = [base.vector(0), base.vector(1), base.vector(2), v]
    return ConfigTuple.from_vectors(space, vectors, normalized=True)


def phi4_tilde_coeffs(a, b, c1: complex, eps: int) -> np.ndarray:
    """Coefficients of the provisional fifth vector on (e_r, e_{r-1}, f_{r-1}, f_r)."""
    a1, a2 = a
    b1, b2 = b
    c = (c1, derived_c2(a, b, c1, eps))
    root = delta_sqrt(a1, a2, eps)
    return np.array([
        b1,
        psi_eta(a, b, c, eps, -1) / root,
        eps * psi_eta(a, b, c, eps, +1) / root,
        eps * b2,
    ], dtype=complex)


def _tilde_vector(space: FormedSpace, coeffs: np.ndarray) -> np.ndarray:
    r = space.r
    return (coeffs[0] * space.e(r) + coeffs[1] * space.e(r - 1)
            + coeffs[2] * space.f(r - 1) + coeffs[3] * space.f(r))


def phi4(space: FormedSpace, a, b, c1: complex) -> ConfigTuple:
    """The canonical quintuple with coordinates (a1, a2, b1, b2, c1).

    The provisional fifth vector lives on the outer two hyperbolic pairs; its
    q-defect is absorbed by the innermost slots, which needs r >= 3 in the
    even orthogonal case and r >= 2 otherwise.
    """
    eps, d, r = space.eps, space.d, space.r
    if r < min_rank(eps, d) + 1:
        raise ValueError(
            f"phi4 needs r >= {min_rank(eps, d) + 1} for (eps, d) = ({eps}, {d}), got r={r}")
    a1, a2 = a
    b1, b2 = b
    for name, z in (("b1", b1), ("b2", b2), ("c1", c1)):
        _require_param_nonzero(name, z)
    c2 = derived_c2(a, b, c1, eps)
    _require_delta("b", b1, b2, eps)
    _require_delta("c", c1, c2, eps)
    base = phi3(space, a1, a2)  # validates a1, a2, Delta(a)
    coeffs = phi4_tilde_coeffs(a, b, c1, eps)
    tilde = _tilde_vector(space, coeffs)
    q_tilde = complex(space.q(tilde))
    if r >= 3:
        v4 = tilde + space.e(r - 2) - (q_tilde / 2) * space.f(r - 2)
    elif (eps, d) == (+1, 1):
        root = principal_sqrt(-q_tilde)
        if abs(root) ** 2 < 1e-10 * max(1.0, float(np.linalg.norm(tilde)) ** 2):
            raise GenericityError(
                "fifth point degenerates: its unit-slot component vanishes",
                failing="unit-slot")
        v4 = tilde + root * space.h()
    else:  # (eps, d) == (-1, 0), r == 2: no inner slots, no correction needed
        v4 = tilde
    vectors = [base.vector(i) for i in range(4)] + [v4]
    return ConfigTuple.from_vectors(space, vectors, normalized=True)


def so4_rank2_relation(t: ConfigTuple, *, tol: float = TOL_GENERIC) -> float:
    """Relative size of q of the provisional fifth vector built from pi4(t).

    For quintuples living in the rank-2 even orthogonal space there are no
    inner slots to absorb a q-defect, so the invariants of an actual isotropic
    quintuple satisfy this relation (the value is ~0).  In every other case it
    is generically of order one — except for symplectic tuples, where q
    vanishes identically and the relation is vacuous.
    """
    if t.k != 5:
        raise ValueError("so4_rank2_relation needs a 5-tuple")
    a1, a2, b1, b2, c1 = pi4(t, tol=tol)
    coeffs = phi4_tilde_coeffs((a1, a2), (b1, b2), c1, t.space.eps)
    model = make_space(t.space.eps, 0, 2)
    q_tilde = complex(model.q(coeffs))
    return abs(q_tilde) / max(1.0, float(np.linalg.norm(coeffs)) ** 2)


def _certified(build, *args):
    """Call ``witt_complete`` or ``GroupElement.create`` on pairs or matrices
    built from an input that has already been certified.  A ``ValueError``
    there is a numerical failure, not bad input, so it is re-raised as
    ``RuntimeError`` with the same message."""
    try:
        return build(*args)
    except ValueError as exc:
        raise RuntimeError(str(exc)) from exc


# ----------------------------------------------------------------------
# Mapping a vector onto an equal-q model vector
# ----------------------------------------------------------------------

def _isotropic_candidates(space: FormedSpace) -> list[np.ndarray]:
    """Deterministic isotropic probe vectors: the standard pairs from the
    outside in, then (d=1) a unit-slot combination that pairs with h."""
    cand = []
    for i in range(space.r, 0, -1):
        cand.append(space.e(i))
        cand.append(space.f(i))
    if space.d == 1 and space.r >= 1 and space.eps == +1:
        cand.append(space.h() + space.e(space.r) - 0.5 * space.f(space.r))
    return cand


def _best_candidate(space: FormedSpace, x: np.ndarray) -> np.ndarray:
    cand = _isotropic_candidates(space)
    scores = np.array([abs(space.omega(x, c)) / np.linalg.norm(c) for c in cand])
    j = int(np.argmax(scores))
    if scores[j] <= 1e-10 * np.linalg.norm(x):
        raise ValueError("vector pairs with no isotropic direction (is it zero?)")
    return cand[j]


def _adapted_basis_for(space: FormedSpace, x: np.ndarray, qx: complex,
                       isotropic: bool) -> np.ndarray:
    """An adapted basis whose outer pair encodes x: for isotropic x the pair is
    (x, partner); otherwise (x - (q/2)F, F) so that x = E + (q/2)F."""
    c = _best_candidate(space, x)
    if isotropic:
        w = c / space.omega(x, c)
        if space.eps == +1:
            w = w - (space.q(w) / 2) * x
        return _certified(witt_complete, space, [(x, w)])
    f_vec = c / space.omega(x, c)
    e_vec = x - (qx / 2) * f_vec
    return _certified(witt_complete, space, [(e_vec, f_vec)])


def map_vector(space: FormedSpace, x: np.ndarray, target: np.ndarray, *,
               tol: float = TOL_REDUCE) -> GroupElement:
    """A group element carrying x to target; requires q(x) = q(target).

    Both vectors are encoded in adapted bases through equal coordinates, so the
    basis-change isometry maps one to the other (exactly for isotropic vectors,
    up to the q-mismatch otherwise).
    """
    x = np.asarray(x, dtype=complex).reshape(space.n)
    target = np.asarray(target, dtype=complex).reshape(space.n)
    if space.n == 0:
        return GroupElement.create(space, np.zeros((0, 0), dtype=complex))
    qx = complex(space.q(x))
    qt = complex(space.q(target))
    scale = max(1.0, float(np.linalg.norm(x)) ** 2, float(np.linalg.norm(target)) ** 2)
    if abs(qx - qt) > 1e-6 * scale:
        raise ValueError(f"q mismatch: q(x) = {qx:.6g} but q(target) = {qt:.6g}")
    if space.n == 1:
        # O_1 = {+-1}: match the single coordinate as closely as possible.
        s = +1.0 if abs(x[0] - target[0]) <= abs(x[0] + target[0]) else -1.0
        return GroupElement.create(space, np.array([[s]], dtype=complex))
    if min(np.linalg.norm(x), np.linalg.norm(target)) < 1e-12 * np.sqrt(scale):
        raise ValueError("map_vector needs nonzero vectors")
    isotropic = space.eps == -1 or abs(qx) <= 1e-8 * scale
    b_x = _adapted_basis_for(space, x, qx, isotropic)
    b_t = _adapted_basis_for(space, target, qt, isotropic)
    inv_x = space.eps * (space.J @ b_x.T @ space.J)
    g = _certified(GroupElement.create, space, b_t @ inv_x)
    moved = g.m @ x
    err = float(np.linalg.norm(moved - target)) / np.sqrt(scale)
    if err > max(tol, 100 * abs(qx - qt) / scale):
        raise RuntimeError(f"map_vector failed to carry x onto target (residual {err:.3e})")
    return g


def _embed_deep(inner: FormedSpace, space: FormedSpace, g: GroupElement | np.ndarray) -> GroupElement:
    """Embed an isometry of a nested inner space into space, fixing all outer pairs."""
    if isinstance(g, np.ndarray):
        g = GroupElement.create(inner, g)
    s = inner
    while s.r < space.r:
        nxt = make_space(s.eps, s.d, s.r + 1)
        g = embed_iota(s, nxt, g)
        s = nxt
    if s.n != space.n:
        raise ValueError("inner space does not nest inside the target space")
    return g


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionResult:
    """A reducing group element together with its certification data."""

    g: GroupElement
    canonical: ConfigTuple
    residual: float            # worst chordal distance to the model tuple
    condition: float           # amplification estimate for the computed basis
    details: dict = field(default_factory=dict, repr=False)

    @property
    def ill_conditioned(self) -> bool:
        return not (self.condition <= CONDITION_LIMIT)


def _moved_residual(t: ConfigTuple, g: GroupElement, canonical: ConfigTuple) -> float:
    moved = t.apply(g)
    return max(chordal_distance(moved.vector(i), canonical.vector(i))
               for i in range(t.k))


def _lambda_scale(w: np.ndarray, branch: int) -> tuple[complex, complex]:
    """sqrt of the pairing 3-cycle and the scale lambda it induces."""
    sqrt_pi = branch * principal_sqrt(w[0, 1] * w[1, 2] * w[2, 0])
    return sqrt_pi, sqrt_pi / w[1, 0]


def _outer_pair(t: ConfigTuple, sqrt_pi: complex, lam: complex) -> tuple[np.ndarray, np.ndarray]:
    """The primed outermost pair (e'_r, f'_r) spanning (v1, v0)."""
    w12 = t.pairings[1, 2]
    e_r = lam * t.vector(1) / w12
    f_r = w12 * t.vector(0) / sqrt_pi
    return e_r, f_r


def reduce_triple(t: ConfigTuple, *, tol: float = TOL_REDUCE, branch: int = +1) -> ReductionResult:
    """Carry a general-position triple onto the canonical triple phi2."""
    if t.k != 3:
        raise ValueError(f"reduce_triple needs a 3-tuple, got k={t.k}")
    space = t.space
    if space.r < min_rank(space.eps, space.d):
        raise ValueError(
            f"no canonical triple in rank r={space.r} for (eps, d) = ({space.eps}, {space.d})")
    cert = genericity(t, tol=tol if tol > 0 else TOL_GENERIC)
    if not cert.general_position:
        raise GenericityError(
            f"triple is not in general position (level={cert.level})",
            failing=cert.failing or cert.level)
    sqrt_pi, lam = _lambda_scale(t.pairings, branch)
    e_r, f_r = _outer_pair(t, sqrt_pi, lam)
    basis = _certified(witt_complete, space, [(e_r, f_r)])
    g1 = _certified(GroupElement.create, space, basis.T @ space.J)
    y = g1.m @ t.vector(2)
    endpoint = max(abs(y[0] - lam), abs(y[-1] - lam)) / max(1.0, abs(lam))
    inner = space.middle()
    x = y[1:space.n - 1] / lam
    target = x0_vector(space)[1:space.n - 1]
    m = map_vector(inner, x, target, tol=tol)
    g = embed_iota(inner, space, m) @ g1
    canonical = phi2(space)
    residual = _moved_residual(t, g, canonical)
    condition = float(max(np.linalg.cond(basis), 1.0 / cert.min_pairing))
    return ReductionResult(g=g, canonical=canonical, residual=residual,
                           condition=condition,
                           details={"lambda": lam, "endpoint_residual": endpoint,
                                    "certificate": cert, "basis": basis})


def reduce_quadruple(t: ConfigTuple, *, tol: float = TOL_REDUCE, branch: int = +1) -> ReductionResult:
    """Carry a cr-generic quadruple onto phi3(a1, a2), its canonical model.

    ``branch`` selects the square root of the pairing 3-cycle; both choices
    yield the same canonical tuple (through different group elements).
    """
    if t.k != 4:
        raise ValueError(f"reduce_quadruple needs a 4-tuple, got k={t.k}")
    space = t.space
    eps = space.eps
    if space.r < 2:
        raise ValueError(f"reduce_quadruple needs r >= 2, got r={space.r}")
    if branch not in (+1, -1):
        raise ValueError("branch must be +-1")
    cert = genericity(t, tol=TOL_GENERIC)
    if not cert.cr_generic:
        raise GenericityError(
            f"quadruple is not cr-generic (level={cert.level}, failing={cert.failing})",
            failing=cert.failing or cert.level)
    w = t.pairings
    sqrt_pi, lam = _lambda_scale(w, branch)
    mu = w[3, 2] / lam
    _, a1, a2 = cross_ratios4(t)
    e_r, f_r = _outer_pair(t, sqrt_pi, lam)
    hat2 = complement_hat(space, t.vector(0), t.vector(1), t.vector(2))
    hat3 = complement_hat(space, t.vector(0), t.vector(1), t.vector(3))
    m2 = np.array([
        [space.q(hat2), space.omega(hat3, hat2)],
        [space.omega(hat2, hat3), space.q(hat3)],
    ], dtype=complex)
    rhs = np.array([
        [lam, -lam],
        [mu * phi_eta(a1, a2, eps, -1), eps * mu * phi_eta(a1, a2, eps, +1)],
    ], dtype=complex)
    sol = np.linalg.solve(m2, rhs)   # columns: coefficients of e', f' on (hat2, hat3)
    e_in = sol[0, 0] * hat2 + sol[1, 0] * hat3
    f_in = sol[0, 1] * hat2 + sol[1, 1] * hat3
    basis = _certified(witt_complete, space, [(e_r, f_r), (e_in, f_in)])
    g = _certified(GroupElement.create, space, basis.T @ space.J)
    canonical = phi3(space, a1, a2)
    residual = _moved_residual(t, g, canonical)
    condition = float(max(np.linalg.cond(basis), np.linalg.cond(m2),
                          1.0 / cert.min_pairing))
    return ReductionResult(g=g, canonical=canonical, residual=residual,
                           condition=condition,
                           details={"lambda": lam, "mu": mu, "a": (a1, a2),
                                    "branch": branch, "certificate": cert,
                                    "basis": basis})


def reduce_quintuple(t: ConfigTuple, *, tol: float = TOL_REDUCE, branch: int = +1) -> ReductionResult:
    """Carry a cr-generic quintuple onto phi4(a, b, c1), its canonical model.

    Reduces the first four points, then normalizes the image of the fifth:
    its outer components already match the provisional model vector, and the
    inner component is carried onto the model's inner correction.
    """
    if t.k != 5:
        raise ValueError(f"reduce_quintuple needs a 5-tuple, got k={t.k}")
    space = t.space
    eps, d, r = space.eps, space.d, space.r
    if r < min_rank(eps, d) + 1:
        raise ValueError(
            f"reduce_quintuple needs r >= {min_rank(eps, d) + 1} for "
            f"(eps, d) = ({eps}, {d}), got r={r}")
    cert = genericity(t, tol=TOL_GENERIC)
    if not cert.cr_generic:
        raise GenericityError(
            f"quintuple is not cr-generic (level={cert.level}, failing={cert.failing})",
            failing=cert.failing or cert.level)
    a1, a2, b1, b2, c1 = pi4(t)
    base = reduce_quadruple(t.face(4), tol=tol, branch=branch)
    lam = base.details["lambda"]
    w24 = t.pairings[2, 4]
    y = base.g.m @ t.vector(4)
    yp = (eps * lam / w24) * y

    # The outer components of the normalized image must match the provisional
    # model coefficients; their agreement is a strong internal cross-check.
    coeffs = phi4_tilde_coeffs((a1, a2), (b1, b2), c1, eps)
    n = space.n
    outer = np.array([yp[0], yp[1], yp[n - 2], yp[n - 1]])
    tilde_agreement = float(np.abs(outer - coeffs).max() / max(1.0, np.abs(coeffs).max()))

    # Continuation identities for the primed middle pair of the base reduction.
    e_mid = base.details["basis"][:, 1]
    f_mid = base.details["basis"][:, n - 2]
    root_a = delta_sqrt(a1, a2, eps)
    c_pair = (c1, derived_c2((a1, a2), (b1, b2), c1, eps))
    exp_e = eps * (w24 / lam) * psi_eta((a1, a2), (b1, b2), c_pair, eps, -1) / root_a
    exp_f = (w24 / lam) * psi_eta((a1, a2), (b1, b2), c_pair, eps, +1) / root_a
    continuation = (
        float(abs(space.omega(e_mid, t.vector(4)) - exp_e) / max(1.0, abs(exp_e))),
        float(abs(space.omega(f_mid, t.vector(4)) - exp_f) / max(1.0, abs(exp_f))),
    )

    canonical = phi4(space, (a1, a2), (b1, b2), c1)
    x_in = yp[2:n - 2]
    if r >= 3:
        inner = make_space(eps, d, r - 2)
        if float(np.linalg.norm(x_in)) < 1e-8 * max(1.0, float(np.linalg.norm(yp))):
            raise ValueError(
                "inconsistent quintuple: the normalized fifth vector has no inner "
                "component although inner slots exist")
        q_in = complex(inner.q(x_in))
        target = inner.e(inner.r) + (q_in / 2) * inner.f(inner.r)
        m = map_vector(inner, x_in, target, tol=tol)
        g = _embed_deep(inner, space, m) @ base.g
    elif (eps, d) == (+1, 1):  # r == 2: one unit slot absorbs the q-defect
        inner = make_space(eps, d, 0)
        tilde = _tilde_vector(space, coeffs)
        target = principal_sqrt(-complex(space.q(tilde))) * inner.h()
        m = map_vector(inner, x_in, target, tol=tol)
        g = _embed_deep(inner, space, m) @ base.g
    else:  # (eps, d) == (-1, 0), r == 2: no inner slots at all
        g = base.g
    residual = _moved_residual(t, g, canonical)
    condition = float(max(base.condition, 1.0 / cert.min_pairing))
    details = {"lambda": lam, "params": (a1, a2, b1, b2, c1),
               "tilde_agreement": tilde_agreement, "continuation": continuation,
               "certificate": cert, "base": base}
    return ReductionResult(g=g, canonical=canonical, residual=residual,
                           condition=condition, details=details)
