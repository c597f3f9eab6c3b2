"""Canonical reduction of isotropic configurations onto their model tuples."""

import numpy as np
import pytest

from fslab._seeding import rng_for
from fslab.forms import (
    ADMISSIBLE,
    TOL_REDUCE,
    GroupElement,
    chordal_distance,
    make_space,
    random_group_element,
    random_isotropic,
    witt_complete,
)
from fslab.crossratios import (
    ConfigTuple,
    GenericityError,
    pi3,
    pi4,
    random_generic_tuple,
)
from fslab import reduction
from fslab.reduction import (
    CONDITION_LIMIT,
    ReductionResult,
    map_vector,
    min_rank,
    phi2,
    phi3,
    phi4,
    reduce_quadruple,
    reduce_quintuple,
    reduce_triple,
    so4_rank2_relation,
    x0_vector,
)

CASES = list(ADMISSIBLE)

# Smallest ranks supporting each reduction, per (eps, d).
TRIPLE_RANKS = {case: min_rank(*case) for case in CASES}
QUAD_RANKS = {case: 2 for case in CASES}
QUINT_RANKS = {case: min_rank(*case) + 1 for case in CASES}


def make_tuple(eps, d, r, k, seed):
    space = make_space(eps, d, r)
    return random_generic_tuple(space, k, np.random.default_rng(seed))


def canonical_gap(t, canonical):
    return max(chordal_distance(t.vector(i), canonical.vector(i))
               for i in range(t.k))


# ----------------------------------------------------------------------
# Model tuples and the base vector
# ----------------------------------------------------------------------

@pytest.mark.parametrize("eps,d", CASES)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_x0_contract(eps, d, r):
    if r < min_rank(eps, d):
        with pytest.raises(ValueError):
            x0_vector(make_space(eps, d, r))
        return
    space = make_space(eps, d, r)
    x0 = x0_vector(space)
    assert abs(space.q(x0) + (1 + eps)) < 1e-12
    assert abs(space.omega(x0, space.e(r))) < 1e-12
    assert abs(space.omega(x0, space.f(r))) < 1e-12


def test_min_rank_values():
    assert min_rank(+1, 0) == 2
    assert min_rank(+1, 1) == 1
    assert min_rank(-1, 0) == 1


@pytest.mark.parametrize("eps,d", CASES)
def test_phi2_pairings(eps, d):
    space = make_space(eps, d, max(2, min_rank(eps, d)))
    t = phi2(space)
    assert t.k == 3
    w = t.pairings
    assert abs(w[0, 1] - 1) < 1e-12
    assert abs(w[0, 2] - 1) < 1e-12
    assert abs(w[1, 2] - eps) < 1e-12
    assert abs(w[1, 0] - eps) < 1e-12


def test_phi3_coordinates_roundtrip():
    for eps, d in CASES:
        space = make_space(eps, d, 2)
        rng = np.random.default_rng(11)
        for _ in range(25):
            a1, a2 = rng.normal(size=2) + 1j * rng.normal(size=2)
            try:
                t = phi3(space, a1, a2)
            except GenericityError:
                continue
            b1, b2 = pi3(t)
            assert abs(b1 - a1) < 1e-10 * max(1.0, abs(a1))
            assert abs(b2 - a2) < 1e-10 * max(1.0, abs(a2))


def test_phi3_needs_rank_two():
    with pytest.raises(ValueError):
        phi3(make_space(-1, 0, 1), 0.5, 0.5)


def test_phi3_rejects_zero_coordinate():
    space = make_space(1, 1, 2)
    with pytest.raises(GenericityError) as exc:
        phi3(space, 0.0, 0.7)
    assert exc.value.failing == "a1"


def test_phi3_rejects_degenerate_discriminant():
    # For eps = +1, Delta(t, t) = (1 - 2t)^2 - 4t^2 vanishes at t = 1/4.
    space = make_space(1, 0, 2)
    with pytest.raises(GenericityError) as exc:
        phi3(space, 0.25, 0.25)
    assert exc.value.failing == "delta(a)"


@pytest.mark.parametrize("eps,d", CASES)
def test_phi4_coordinates_roundtrip(eps, d):
    r = QUINT_RANKS[(eps, d)]
    space = make_space(eps, d, r)
    rng = np.random.default_rng(13)
    hits = 0
    while hits < 25:
        a = tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
        b = tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
        c1 = complex(rng.normal() + 1j * rng.normal())
        try:
            t = phi4(space, a, b, c1)
        except GenericityError:
            continue
        hits += 1
        got = pi4(t)
        want = (*a, *b, c1)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-10 * max(1.0, abs(w))


def test_phi4_rejects_low_rank():
    for eps, d in CASES:
        r = QUINT_RANKS[(eps, d)] - 1
        if r < 1:
            continue
        with pytest.raises(ValueError):
            phi4(make_space(eps, d, r), (0.3, 0.4), (0.5, 0.6), 0.7)


def test_phi4_rejects_zero_coordinate():
    space = make_space(1, 0, 3)
    with pytest.raises(GenericityError) as exc:
        phi4(space, (0.3, 0.4), (0.0, 0.6), 0.7)
    assert exc.value.failing == "b1"


# ----------------------------------------------------------------------
# map_vector
# ----------------------------------------------------------------------

@pytest.mark.parametrize("eps,d", CASES)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_map_vector_isotropic(eps, d, r):
    space = make_space(eps, d, r)
    rng = np.random.default_rng(100 * r + d)
    for _ in range(10):
        x = random_isotropic(space, rng).vec
        y = random_isotropic(space, rng).vec
        g = map_vector(space, x, y)
        assert np.abs(g.m @ x - y).max() < 1e-8 * max(1.0, np.linalg.norm(y))


def test_map_vector_anisotropic():
    space = make_space(1, 0, 3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=6) + 1j * rng.normal(size=6)
    # Build a target with the same q by scaling a second random vector.
    y = rng.normal(size=6) + 1j * rng.normal(size=6)
    from fslab.forms import principal_sqrt
    y = y * principal_sqrt(space.q(x) / space.q(y))
    g = map_vector(space, x, y)
    assert np.abs(g.m @ x - y).max() < 1e-8 * max(1.0, np.linalg.norm(y))


def rebuilt_gram(eps, d, r):
    """J from its definition, independently of make_space: omega(e_i, f_i) = 1,
    omega(f_i, e_i) = eps and q(h) = 1, in the order (e_r..e_1, [h,] f_1..f_r)."""
    n = 2 * r + d
    J = np.zeros((n, n), dtype=complex)
    for i in range(1, r + 1):
        J[r - i, r + d + i - 1] = 1
        J[r + d + i - 1, r - i] = eps
    if d == 1:
        J[r, r] = 1
    return J


def assert_maps(space, x, t):
    """map_vector carries x onto t and preserves the rebuilt Gram matrix."""
    g = map_vector(space, x, t)
    assert np.abs(g.m @ x - t).max() <= 1e-12 * max(1.0, np.abs(t).max())
    J = rebuilt_gram(space.eps, space.d, space.r)
    assert np.abs(g.m.T @ J @ g.m - J).max() <= 1e-12 * max(1.0, np.abs(g.m).max() ** 2)
    return g.m


@pytest.mark.parametrize("eps,d", CASES)
def test_map_vector_between_orthogonal_isotropic_vectors(eps, d):
    # omega(x, t) = 0 and q = 0: the direct reflection or transvection
    # degenerates, so g goes through z = conj(J(x +- t)).
    space = make_space(eps, d, 2)
    assert_maps(space, space.e(1), space.e(2))


def test_map_vector_scales_an_isotropic_line():
    # In O(2) an isometry fixing the line of e_1 is diagonal.
    space = make_space(1, 0, 1)
    lam = np.exp(0.7j)
    m = assert_maps(space, space.e(1), lam * space.e(1))
    assert np.abs(m - np.diag([lam, 1 / lam])).max() <= 1e-12


@pytest.mark.parametrize("eps,d,r", [(1, 1, 0), (1, 0, 2), (1, 1, 2), (-1, 0, 2)])
def test_map_vector_onto_minus_x(eps, d, r):
    space = make_space(eps, d, r)
    x = np.random.default_rng(3).normal(size=space.n) + 0j
    m = assert_maps(space, x, -x)
    if space.n == 1:
        assert m[0, 0] == -1


def test_map_vector_onto_x_is_the_identity():
    space = make_space(1, 1, 2)
    x = np.random.default_rng(4).normal(size=space.n) + 1j
    assert np.array_equal(map_vector(space, x, x).m, np.eye(space.n))


@pytest.mark.parametrize("eps,d", CASES)
def test_map_vector_fixes_the_padding_slots(eps, d):
    # x and t = h x for an isometry h of the inner rank-2 space, padded by
    # zeros on the outer pair (e_3, f_3) of the rank-3 space.
    space = make_space(eps, d, 3)
    rng = np.random.default_rng(5)
    x = np.zeros(space.n, dtype=complex)
    t = np.zeros(space.n, dtype=complex)
    x[1:-1] = rng.normal(size=space.n - 2) + 1j * rng.normal(size=space.n - 2)
    t[1:-1] = random_group_element(make_space(eps, d, 2), rng).m @ x[1:-1]
    m = assert_maps(space, x, t)
    outer = [0, space.n - 1]
    assert np.array_equal(m[:, outer], np.eye(space.n)[:, outer])
    assert np.array_equal(m[outer, :], np.eye(space.n)[outer, :])


# (eps, d, r, index): x = w + 1e-5 v / |v| for an isotropic w drawn with
# rng_for(0, "near-isotropic", index), and t = g x for a random isometry g.
# Mapping x through two Witt bases raised "pairs are not adapted" on these.
NEAR_ISOTROPIC_REPRODUCERS = [(1, 0, 2, 39), (1, 1, 2, 2)]


@pytest.mark.parametrize("eps,d,r,index", NEAR_ISOTROPIC_REPRODUCERS)
def test_map_vector_near_isotropic_reproducers(eps, d, r, index):
    space = make_space(eps, d, r)
    rng = rng_for(0, "near-isotropic", index)
    w = random_isotropic(space, rng).vec
    v = rng.standard_normal(space.n) + 1j * rng.standard_normal(space.n)
    x = w + 1e-5 * v / np.linalg.norm(v)
    t = random_group_element(space, rng).m @ x
    g = map_vector(space, x, t)
    assert np.linalg.norm(g.m @ x - t) <= TOL_REDUCE * max(1.0, np.linalg.norm(t))
    J = rebuilt_gram(eps, d, r)
    assert np.abs(g.m.T @ J @ g.m - J).max() <= 1e-9


def test_map_vector_rejects_q_mismatch():
    space = make_space(1, 0, 2)
    with pytest.raises(ValueError, match="q mismatch"):
        map_vector(space, space.e(2) + 0.5 * space.f(2), space.e(2))


def test_map_vector_rejects_zero():
    space = make_space(1, 0, 2)
    with pytest.raises(ValueError):
        map_vector(space, np.zeros(4, dtype=complex), np.zeros(4, dtype=complex))


# ----------------------------------------------------------------------
# Reductions: residuals, canonical targets, invariance
# ----------------------------------------------------------------------

@pytest.mark.parametrize("eps,d", CASES)
def test_reduce_triple(eps, d):
    for r in {TRIPLE_RANKS[(eps, d)], 3}:
        space = make_space(eps, d, r)
        for seed in range(10):
            t = random_generic_tuple(space, 3, np.random.default_rng(seed))
            res = reduce_triple(t)
            assert res.residual <= 1e-8
            assert canonical_gap(t.apply(res.g), res.canonical) <= 1e-8
            assert canonical_gap(phi2(space), res.canonical) < 1e-12
            assert not res.ill_conditioned


@pytest.mark.parametrize("eps,d", CASES)
def test_reduce_quadruple(eps, d):
    for r in {QUAD_RANKS[(eps, d)], 3}:
        space = make_space(eps, d, r)
        for seed in range(10):
            t = random_generic_tuple(space, 4, np.random.default_rng(seed))
            res = reduce_quadruple(t)
            assert res.residual <= 1e-8
            a1, a2 = res.details["a"]
            assert canonical_gap(phi3(space, a1, a2), res.canonical) < 1e-12
            assert not res.ill_conditioned


@pytest.mark.parametrize("eps,d", CASES)
def test_reduce_quintuple(eps, d):
    for r in {QUINT_RANKS[(eps, d)], 3}:
        space = make_space(eps, d, r)
        for seed in range(10):
            t = random_generic_tuple(space, 5, np.random.default_rng(seed))
            res = reduce_quintuple(t)
            assert res.residual <= 1e-8
            assert res.details["tilde_agreement"] <= 1e-8
            assert max(res.details["continuation"]) <= 1e-8
            assert not res.ill_conditioned


@pytest.mark.parametrize("eps,d", CASES)
@pytest.mark.parametrize("k", [4, 5])
def test_canonical_invariance_under_group(eps, d, k):
    """The canonical coordinates of t and g.t agree for any isometry g."""
    r = QUINT_RANKS[(eps, d)] if k == 5 else 3
    space = make_space(eps, d, r)
    project = pi4 if k == 5 else pi3
    for seed in range(10):
        rng = np.random.default_rng(seed)
        t = random_generic_tuple(space, k, rng)
        g = random_group_element(space, rng)
        before = np.array(project(t))
        after = np.array(project(t.apply(g)))
        assert np.abs(after - before).max() <= 1e-8 * max(1.0, np.abs(before).max())


def test_branch_choices_share_canonical():
    t = make_tuple(1, 1, 3, 4, 3)
    plus = reduce_quadruple(t, branch=+1)
    minus = reduce_quadruple(t, branch=-1)
    assert np.abs(plus.canonical.vectors - minus.canonical.vectors).max() < 1e-12
    assert np.abs(plus.g.m - minus.g.m).max() > 1e-3  # different group elements
    assert minus.residual <= 1e-8


def test_reduction_is_deterministic():
    t = make_tuple(1, 0, 3, 5, 8)
    r1 = reduce_quintuple(t)
    r2 = reduce_quintuple(t)
    assert np.array_equal(r1.g.m, r2.g.m)
    assert r1.residual == r2.residual


def test_reducing_group_elements_preserve_form():
    for eps, d in CASES:
        t = make_tuple(eps, d, 3, 4, 5)
        g = reduce_quadruple(t).g
        assert isinstance(g, GroupElement)
        space = t.space
        assert np.abs(g.m.T @ space.J @ g.m - space.J).max() < 1e-9


# ----------------------------------------------------------------------
# Degeneracy handling and conditioning
# ----------------------------------------------------------------------

def test_reduce_triple_rejects_repeated_point():
    space = make_space(1, 0, 3)
    from fslab.crossratios import ConfigTuple
    t = ConfigTuple.from_vectors(
        space, [space.e(3), space.f(3), 2.0 * space.e(3)])
    with pytest.raises(GenericityError) as exc:
        reduce_triple(t)
    assert "pairing" in exc.value.failing


def test_reduce_quadruple_rejects_delta_degenerate():
    # Gamma = 1 - z1 - z2 = 0 makes Delta vanish for eps = -1; build such a
    # quadruple directly from independent isotropic vectors.
    space = make_space(-1, 0, 3)
    from fslab.crossratios import ConfigTuple
    v3 = (0.4 * space.e(3) + 0.5 * space.e(2) + 0.3 * space.e(1)
          - 0.5 * space.f(2) + 0.7 * space.f(3))
    t = ConfigTuple.from_vectors(
        space,
        [space.e(3), space.f(3), space.e(3) + space.e(2) - space.f(2) + space.f(3), v3])
    with pytest.raises(GenericityError) as exc:
        reduce_quadruple(t)
    assert exc.value.failing == "delta"


def test_near_degenerate_quadruple_fails_loudly_or_flags():
    """Close to the discriminant locus the reduction must never return a
    quiet garbage answer: either a genericity/stability error is raised or
    the result carries a large condition estimate with a small residual."""
    space = make_space(1, 0, 3)
    g = random_group_element(space, np.random.default_rng(5))
    for off in (1e-6, 1e-7, 3e-8, 2e-8, 1.5e-8):
        t = phi3(space, 0.25 + off, 0.25).apply(g)
        try:
            res = reduce_quadruple(t)
        except (GenericityError, RuntimeError):
            continue
        assert res.residual <= 1e-6
        assert res.condition > 1e4


def test_ill_conditioned_property_contract():
    ok = ReductionResult(g=None, canonical=None, residual=0.0,
                         condition=CONDITION_LIMIT / 2)
    bad = ReductionResult(g=None, canonical=None, residual=0.0,
                          condition=CONDITION_LIMIT * 10)
    nan = ReductionResult(g=None, canonical=None, residual=0.0,
                          condition=float("nan"))
    assert not ok.ill_conditioned
    assert bad.ill_conditioned
    assert nan.ill_conditioned


def test_wrong_arity_rejected():
    t3 = make_tuple(1, 0, 3, 3, 0)
    t4 = make_tuple(1, 0, 3, 4, 0)
    with pytest.raises(ValueError):
        reduce_triple(t4)
    with pytest.raises(ValueError):
        reduce_quadruple(t3)
    with pytest.raises(ValueError):
        reduce_quintuple(t4)


def test_reduce_low_rank_rejected():
    # r=1 symplectic: quadruples need r >= 2 (the rank gate fires first).
    space = make_space(-1, 0, 1)
    from fslab.crossratios import ConfigTuple
    t = ConfigTuple.from_vectors(
        space, [space.e(1), space.f(1), space.e(1) + space.f(1),
                space.e(1) - space.f(1)])
    with pytest.raises(ValueError):
        reduce_quadruple(t)


# ----------------------------------------------------------------------
# The rank-two orthogonal quintuple relation
# ----------------------------------------------------------------------

def test_so4_rank2_relation_vanishes_in_rank_two():
    space = make_space(1, 0, 2)
    for seed in range(10):
        t = random_generic_tuple(space, 5, np.random.default_rng(seed))
        assert so4_rank2_relation(t) < 1e-10


def test_so4_rank2_relation_generic_in_rank_three():
    space = make_space(1, 0, 3)
    vals = [so4_rank2_relation(random_generic_tuple(space, 5, np.random.default_rng(s)))
            for s in range(10)]
    assert max(vals) > 1e-3  # no accidental relation in higher rank


def test_so4_rank2_relation_vacuous_for_symplectic():
    space = make_space(-1, 0, 2)
    for seed in range(5):
        t = random_generic_tuple(space, 5, np.random.default_rng(seed))
        assert so4_rank2_relation(t) < 1e-12


def test_so4_rank2_relation_needs_quintuple():
    with pytest.raises(ValueError):
        so4_rank2_relation(make_tuple(1, 0, 2, 4, 0))


# ----------------------------------------------------------------------
# Witt completion at high rank
# ----------------------------------------------------------------------

REDUCERS = {4: reduce_quadruple, 5: reduce_quintuple}


# (eps, d, r, index, k): the first k points of the quintuple drawn with
# rng_for(0, "x", index).  Witt completion failed on each while its completed
# pairs were not norm-balanced (entries grew to about 1e8 and the rank cut of
# the omega-complement miscounted).
WITT_REPRODUCERS = [(1, 1, 6, 52, 4), (1, 0, 16, 48, 5), (1, 0, 16, 65, 4)]


@pytest.mark.parametrize("eps,d,r,index,k", WITT_REPRODUCERS)
def test_witt_completion_reproducers_reduce(eps, d, r, index, k):
    space = make_space(eps, d, r)
    t = random_generic_tuple(space, 5, rng_for(0, "x", index))
    res = REDUCERS[k](ConfigTuple.from_vectors(space, [t.vector(i) for i in range(k)]))
    assert res.residual <= TOL_REDUCE
    J = rebuilt_gram(eps, d, r)
    assert np.abs(res.g.m.T @ J @ res.g.m - J).max() <= 1e-9


def test_orthogonal_reductions_at_ranks_8_to_16_all_succeed():
    # Five cr-generic 4- and 5-tuples per orthogonal signature and rank; five
    # of these 180 reductions failed in Witt completion before the balancing.
    cells = [(eps, d, r, k) for eps, d in ((1, 1), (1, 0)) for r in range(8, 17)
             for k in (4, 5) for _ in range(5)]
    failures = []
    for index, (eps, d, r, k) in enumerate(cells):
        t = random_generic_tuple(make_space(eps, d, r), k, rng_for(7, "w", index))
        try:
            res = REDUCERS[k](t)
        except RuntimeError as exc:
            failures.append((eps, d, r, k, index, str(exc)))
        else:
            if res.residual > TOL_REDUCE:
                failures.append((eps, d, r, k, index, res.residual))
    assert failures == []


def integer_isotropic(space, rng):
    """An isotropic vector with coordinates in {-2, ..., 2}, by rejection."""
    while True:
        v = rng.integers(-2, 3, size=space.n).astype(complex)
        if v.any() and space.q(v) == 0:
            return v


def test_certified_integer_tuples_reduce():
    # Structured inputs: many coordinates vanish or coincide, so the direct
    # rank-one step of map_vector degenerates far more often than on Gaussian
    # tuples.  Every tuple that passes certification must reduce.
    reducers = {3: reduce_triple, **REDUCERS}
    certified = 0
    failures = []
    for eps, d in CASES:
        for k, lowest in ((3, min_rank(eps, d)), (4, 2), (5, min_rank(eps, d) + 1)):
            for r in range(max(lowest, 1), 5):
                space = make_space(eps, d, r)
                J = rebuilt_gram(eps, d, r)
                rng = np.random.default_rng([eps + 1, d, r, k])
                for rep in range(30):
                    vecs = [integer_isotropic(space, rng) for _ in range(k)]
                    try:
                        res = reducers[k](ConfigTuple.from_vectors(space, vecs))
                    except GenericityError:
                        continue
                    except (RuntimeError, ValueError) as exc:
                        failures.append((eps, d, r, k, rep, str(exc)))
                        continue
                    certified += 1
                    gram_err = np.abs(res.g.m.T @ J @ res.g.m - J).max()
                    if res.residual > TOL_REDUCE or gram_err > 1e-9:
                        failures.append((eps, d, r, k, rep, res.residual, gram_err))
    assert failures == []
    assert certified >= 300


def suite_trial_96_quadruple():
    """The moved quadruple ``t.apply(g)`` of trial 96 of ``verify --suite
    reductions --eps 1 --d 1 --r 6`` (seed 0), rebuilt by replaying that
    trial's draws.  Its Witt completion gets two unbalanced pairs, of norms
    19.0/4.2 and 12.7/15.9; a completion that updated one n x n
    omega-projector by rank two per slot failed its Gram check here at 1.9e-9."""
    space = make_space(1, 1, 6)
    rng = rng_for(0, "suite.reductions.1.1.6", 96)
    for _ in range(7):  # the phi3 and phi4 round-trip coordinates
        rng.normal(size=2)
    random_generic_tuple(space, 3, rng)  # the trial's triple
    t = random_generic_tuple(space, 4, rng)
    return t.apply(random_group_element(space, rng))


def test_suite_trial_96_quadruple_reduces():
    res = reduce_quadruple(suite_trial_96_quadruple())
    assert res.residual <= TOL_REDUCE
    J = rebuilt_gram(1, 1, 6)
    assert np.abs(res.g.m.T @ J @ res.g.m - J).max() <= 1e-9


def unbalanced_pairs(space, k, rng):
    """The k outermost pairs of a random isometry, each rescaled to
    (alpha u, w / alpha) with |log alpha| <= 1.5: still adapted, but the two
    norms of a pair differ by a factor of up to e^3."""
    m = random_group_element(space, rng).m
    pairs = []
    for i in range(k):
        alpha = np.exp(rng.uniform(-1.5, 1.5))
        pairs.append((alpha * m[:, space.e_index(space.r - i)],
                      m[:, space.f_index(space.r - i)] / alpha))
    return pairs


@pytest.mark.parametrize("eps,d", CASES)
def test_witt_completion_of_given_unbalanced_pairs(eps, d, monkeypatch):
    inputs = [(r, unbalanced_pairs(make_space(eps, d, r), k,
                                   rng_for(11, f"witt.stress.{eps}.{d}.{r}.{k}", rep)))
              for r in range(1, 21) for k in range(min(r, 2) + 1) for rep in range(2)]
    if (eps, d) == (1, 1):
        given = []

        def recording(space, pairs=(), **kw):
            given.append(pairs)
            return witt_complete(space, pairs, **kw)

        monkeypatch.setattr(reduction, "witt_complete", recording)
        reduce_quadruple(suite_trial_96_quadruple())
        inputs += [(6, pairs) for pairs in given]
    # The residual is relative to max(1, max |T|^2), as in group_residual.
    # The completion with one SVD and one omega-projector solve per slot
    # reached 1.0e-13 at worst on these inputs (eps = +1, d = 1, r = 19,
    # k = 1); the bound is 100 times that.
    worst = 0.0
    for r, pairs in inputs:
        space = make_space(eps, d, r)
        t = witt_complete(space, pairs)
        J = rebuilt_gram(eps, d, r)
        worst = max(worst, np.abs(t.T @ J @ t - J).max() / max(1.0, np.abs(t).max() ** 2))
        for i, (u, w) in enumerate(pairs):
            assert np.array_equal(t[:, space.e_index(r - i)], u)
            assert np.array_equal(t[:, space.f_index(r - i)], w)
    assert worst <= 1e-11
