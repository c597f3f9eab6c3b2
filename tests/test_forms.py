"""Formed spaces, their groups, and Witt completion.

The pairing oracle here recomputes omega from the basis pairing rules alone
(never through the Gram matrix), so the two implementations can only agree if
the matrix is right.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fslab import forms
from fslab.forms import (
    ADMISSIBLE,
    TOL_GROUP,
    FormedSpace,
    GroupElement,
    chordal_distance,
    complement_hat,
    embed_iota,
    make_space,
    normalize_projective,
    nullspace,
    principal_sqrt,
    proj_hyperbolic,
    random_group_element,
    random_isotropic,
    witt_complete,
)

CASES = list(ADMISSIBLE)
RNG = np.random.default_rng(20260816)


def oracle_omega(space: FormedSpace, v, w) -> complex:
    """Pairing straight from the basis rules: omega(e_i, f_i) = 1,
    omega(f_i, e_i) = eps, omega(h, h) = 1, all other basis pairs 0."""
    total = 0j
    for i in range(1, space.r + 1):
        total += v[space.e_index(i)] * w[space.f_index(i)]
        total += space.eps * v[space.f_index(i)] * w[space.e_index(i)]
    if space.d:
        total += v[space.h_index()] * w[space.h_index()]
    return complex(total)


def rand_vec(space, rng=RNG):
    return rng.normal(size=space.n) + 1j * rng.normal(size=space.n)


# ----------------------------------------------------------------------
# Construction and the form itself
# ----------------------------------------------------------------------

@pytest.mark.parametrize("eps,d", CASES)
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_omega_matches_pairing_rule_oracle(eps, d, r):
    space = make_space(eps, d, r)
    assert space.n == 2 * r + d
    for _ in range(20):
        v, w = rand_vec(space), rand_vec(space)
        assert abs(space.omega(v, w) - oracle_omega(space, v, w)) < 1e-12


@pytest.mark.parametrize("eps,d", CASES)
def test_basis_pairings(eps, d):
    space = make_space(eps, d, 3)
    for i in range(1, 4):
        for j in range(1, 4):
            assert space.omega(space.e(i), space.f(j)) == (1 if i == j else 0)
            assert space.omega(space.f(i), space.e(j)) == (eps if i == j else 0)
            assert space.omega(space.e(i), space.e(j)) == 0
            assert space.omega(space.f(i), space.f(j)) == 0
        assert space.q(space.e(i)) == 0 and space.q(space.f(i)) == 0
    if d:
        assert space.omega(space.h(), space.h()) == 1


def test_alternating_form_is_skew():
    space = make_space(-1, 0, 3)
    for _ in range(10):
        v, w = rand_vec(space), rand_vec(space)
        assert abs(space.omega(v, w) + space.omega(w, v)) < 1e-12
        assert abs(space.q(v)) < 1e-12


def test_symmetric_form_is_symmetric():
    space = make_space(1, 1, 2)
    for _ in range(10):
        v, w = rand_vec(space), rand_vec(space)
        assert abs(space.omega(v, w) - space.omega(w, v)) < 1e-12


def test_gram_matches_omega():
    space = make_space(1, 0, 3)
    vecs = [rand_vec(space) for _ in range(4)]
    g = space.gram(vecs)
    for i in range(4):
        for j in range(4):
            assert abs(g[i, j] - space.omega(vecs[i], vecs[j])) < 1e-12


def test_inadmissible_signature_rejected():
    with pytest.raises(ValueError):
        make_space(-1, 1, 2)
    with pytest.raises(ValueError):
        make_space(2, 0, 2)
    with pytest.raises(ValueError):
        make_space(1, 0, -1)


def test_rank_zero_space():
    space = make_space(1, 1, 0)
    assert space.n == 1
    assert witt_complete(make_space(1, 0, 0)).shape == (0, 0)


# ----------------------------------------------------------------------
# Scalar helpers
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                          allow_nan=False, allow_infinity=False))
def test_principal_sqrt_properties(z):
    s = principal_sqrt(z)
    assert abs(s * s - z) <= 1e-9 * abs(z)
    assert s.real > -1e-12 * abs(s)


def test_principal_sqrt_negative_axis():
    assert abs(principal_sqrt(-4.0) - 2j) < 1e-14
    assert principal_sqrt(-9.0 + 0j).imag > 0


def test_chordal_distance():
    u = np.array([1.0, 2.0, 3.0 + 1j])
    assert chordal_distance(u, u) < 1e-15
    assert chordal_distance(u, (2 - 5j) * u) < 1e-12  # projective
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert abs(chordal_distance(a, b) - 1.0) < 1e-15
    # sine of the angle, checked against the cosine route at a safe distance
    v = np.array([1.0, 1.0 + 1j, -0.5j]) / np.sqrt(3.25)
    cos = abs(np.vdot(v, u)) / (np.linalg.norm(u) * np.linalg.norm(v))
    assert abs(chordal_distance(u, v) - np.sqrt(1 - cos**2)) < 1e-12


def test_normalize_projective_first_entry_one():
    v = np.array([0.0, 3j, 1.0 + 1j])
    w = normalize_projective(v)
    assert abs(chordal_distance(v, w)) < 1e-12
    # first significant entry becomes exactly 1
    k = int(np.argmax(np.abs(w) > 1e-12))
    assert abs(w[k] - 1.0) < 1e-14
    with pytest.raises(ValueError):
        normalize_projective(np.zeros(3))


def test_nullspace():
    m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    ns = nullspace(m)
    assert ns.shape[1] == 2
    assert np.linalg.norm(m @ ns) < 1e-12


# ----------------------------------------------------------------------
# Group elements
# ----------------------------------------------------------------------

@pytest.mark.parametrize("eps,d", CASES)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_random_group_element_preserves_form(eps, d, r):
    space = make_space(eps, d, r)
    for i in range(5):
        g = random_group_element(space, np.random.default_rng(100 + i))
        v, w = rand_vec(space), rand_vec(space)
        lhs = space.omega(g.apply(v), g.apply(w))
        rhs = space.omega(v, w)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
        assert abs(abs(g.det()) - 1.0) < 1e-9


def test_group_inverse_and_compose():
    space = make_space(1, 1, 2)
    rng = np.random.default_rng(3)
    g = random_group_element(space, rng)
    h = random_group_element(space, rng)
    ident = g @ g.inverse()
    assert np.linalg.norm(ident.m - np.eye(space.n)) < 1e-9
    gh = g @ h
    v = rand_vec(space)
    assert np.linalg.norm(gh.apply(v) - g.apply(h.apply(v))) < 1e-9


def test_group_membership_rejects_non_isometry():
    space = make_space(-1, 0, 2)
    with pytest.raises(ValueError):
        GroupElement.create(space, np.diag([2.0, 1.0, 1.0, 1.0]).astype(complex))


def test_embed_iota_block_structure():
    small = make_space(1, 0, 2)
    big = make_space(1, 0, 3)
    g = random_group_element(small, np.random.default_rng(8))
    big_g = embed_iota(small, big, g)
    m = big_g.m
    assert abs(m[0, 0] - 1) < 1e-12 and abs(m[-1, -1] - 1) < 1e-12
    assert np.linalg.norm(m[1:-1, 1:-1] - g.m) < 1e-12
    assert np.linalg.norm(m[0, 1:]) < 1e-12 and np.linalg.norm(m[1:, 0]) < 1e-12


# ----------------------------------------------------------------------
# Isotropic vectors, hyperbolic projections, Witt completion
# ----------------------------------------------------------------------

@pytest.mark.parametrize("eps,d", CASES)
def test_random_isotropic(eps, d):
    space = make_space(eps, d, 3)
    for i in range(10):
        p = random_isotropic(space, np.random.default_rng(i))
        assert abs(space.q(p.vec)) < 1e-10 * np.linalg.norm(p.vec) ** 2
        assert np.linalg.norm(p.vec) > 0


def test_complement_hat_is_orthogonal_to_plane():
    space = make_space(1, 1, 3)
    rng = np.random.default_rng(4)
    v0 = random_isotropic(space, rng).vec
    v1 = random_isotropic(space, rng).vec
    v = rand_vec(space)
    hat = complement_hat(space, v0, v1, v)
    assert abs(space.omega(hat, v0)) < 1e-9
    assert abs(space.omega(hat, v1)) < 1e-9
    proj = proj_hyperbolic(space, v0, v1, v)
    assert np.linalg.norm(v - proj - hat) < 1e-9


@pytest.mark.parametrize("eps,d", CASES)
@pytest.mark.parametrize("r", range(1, 13))
def test_witt_complete_from_scratch(eps, d, r):
    space = make_space(eps, d, r)
    basis = witt_complete(space)
    assert np.linalg.norm(space.gram(basis.T) - space.J) < 1e-9
    # With no pairs given, the completion is the standard basis itself.
    assert np.array_equal(basis, np.eye(space.n))


@pytest.mark.parametrize("eps,d", CASES)
def test_witt_complete_extends_given_pair(eps, d):
    space = make_space(eps, d, 3)
    rng = np.random.default_rng(17)
    for i in range(5):
        v0 = random_isotropic(space, rng).vec
        # build a partner with omega(v0, partner) = 1
        w = rand_vec(space, rng)
        if abs(space.omega(v0, w)) < 1e-6:
            continue
        partner = w / space.omega(v0, w)
        partner = partner - (space.q(partner) / 2.0) * space.eps * v0
        basis = witt_complete(space, [(v0, partner)])
        assert np.linalg.norm(space.gram(basis.T) - space.J) < 1e-8
        # the prescribed pair occupies the outermost slots
        assert np.linalg.norm(basis[:, space.e_index(space.r)] - v0) < 1e-9
        assert np.linalg.norm(basis[:, space.f_index(space.r)] - partner) < 1e-9


def test_witt_complete_reports_a_failed_deflation(monkeypatch):
    # A numerical null space that keeps every dimension must stop the
    # completion, not feed the next slot a basis of the wrong span.
    monkeypatch.setattr(forms, "nullspace", lambda mat: np.eye(mat.shape[1], dtype=complex))
    with pytest.raises(RuntimeError, match="did not remove two dimensions"):
        witt_complete(make_space(1, 0, 3))


def test_witt_complete_deterministic():
    space = make_space(1, 0, 3)
    b1 = witt_complete(space)
    b2 = witt_complete(space)
    assert np.array_equal(b1, b2)
