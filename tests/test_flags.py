"""Complete flags, the volume cocycle, and its restriction to the quadric."""

import numpy as np
import pytest

from fslab.dilog import bloch_wigner, v_max
from fslab.flags import (
    _RANK_CUT,
    AffineFlag,
    BoundaryPoint,
    Sigma3Class,
    b4_so4,
    b4_so4_batch,
    b_n,
    b_n_j,
    boundary_lines,
    cocycle_residual,
    contributing_j,
    flag_infinity,
    flip_to_special,
    general_position,
    infinity_lines,
    random_flag,
    random_flag_tuple,
    rho_flag,
    so4_space,
    standard_flags_so4,
    t_j,
    vol_sigma3,
    _all_j,
    _b_rows,
    _cross_blocks,
    _general_rows,
    _sigma3,
)
from fslab.forms import GroupElement, chordal_distance, random_group_element


def random_gl(n, rng):
    for _ in range(20):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if abs(np.linalg.det(m)) > 1e-3:
            return m
    raise RuntimeError("no invertible draw")


# ----------------------------------------------------------------------
# Flags and general position
# ----------------------------------------------------------------------

def test_flag_create_validates():
    with pytest.raises(ValueError):
        AffineFlag.create(np.ones((3, 2)))
    with pytest.raises(ValueError):  # dependent columns
        AffineFlag.create(np.array([[1, 2], [2, 4]], dtype=complex))


def test_flag_prefix_is_orthonormal_and_spans():
    f = random_flag(4, np.random.default_rng(0))
    for j in range(1, 5):
        p = f.prefix(j)
        assert p.shape == (4, j)
        assert np.abs(p.conj().T @ p - np.eye(j)).max() < 1e-12
        # F^j contains the first j chain vectors.
        for i in range(j):
            v = f.vector(i)
            res = v - p @ (p.conj().T @ v)
            assert np.linalg.norm(res) < 1e-10 * np.linalg.norm(v)


def _perturbed(flag, eps, rng):
    """A copy of ``flag`` moved by ``eps`` relative to its chain vectors."""
    n = flag.n
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return AffineFlag.create(flag.vecs + eps * np.linalg.norm(flag.vecs) * noise)


_PERTURBATIONS = (1e-7, 1e-8, 1e-9)


def _special_tuples(n, k, rng):
    """k-tuples of flags of four kinds: random; with a repeated flag; with two
    flags sharing their first line; with a flag perturbed off a copy of
    another by each of _PERTURBATIONS, around the rank cut."""
    flags = list(random_flag_tuple(n, k, rng))
    repeated = flags[:-1] + [flags[0]]
    shared = flags[-1].vecs.copy()
    shared[:, 0] = flags[0].vecs[:, 0]
    out = [flags, repeated, flags[:-1] + [AffineFlag.create(shared)]]
    out += [flags[:-1] + [_perturbed(flags[0], eps, rng)] for eps in _PERTURBATIONS]
    return out


def _reference_general_position(flags, rtol=1e-8):
    """General position the exhaustive way: an SVD of every sum of flag
    subspaces with 0 < |J| <= n."""
    from itertools import product
    n = flags[0].n
    for J in product(range(n + 1), repeat=len(flags)):
        if 0 < sum(J) <= n:
            stack = np.concatenate([f.prefix(j) for f, j in zip(flags, J)], axis=1)
            sv = np.linalg.svd(stack, compute_uv=False)
            if sv[-1] <= rtol * sv[0]:
                return False
    return True


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_general_position_matches_the_exhaustive_reference(n, k):
    """The test of the sums with |J| = n alone gives the answer of testing
    every sum with |J| <= n, on each kind of special tuple."""
    rng = np.random.default_rng(80 + 10 * n + k)
    answers = []
    for flags in _special_tuples(n, k, rng):
        want = _reference_general_position(flags)
        assert general_position(flags) == want
        answers.append(want)
    assert answers[:3] == [True, False, False]


def test_general_position_random_and_degenerate():
    rng = np.random.default_rng(1)
    flags = random_flag_tuple(3, 4, rng)
    assert general_position(flags)
    assert not general_position([flags[0], flags[0], flags[1], flags[2]])
    with pytest.raises(ValueError):
        general_position([flags[0], random_flag(2, rng)])


# ----------------------------------------------------------------------
# Sigma_3 classes
# ----------------------------------------------------------------------

def test_t_j_validates_inputs():
    rng = np.random.default_rng(2)
    flags = random_flag_tuple(3, 4, rng)
    with pytest.raises(ValueError):
        t_j(flags[:3], (0, 0, 0))
    with pytest.raises(ValueError):
        t_j(flags, (0, 0, 0, 3))  # out of range for n=3


def test_t_j_zero_index_is_identity_quotient():
    rng = np.random.default_rng(3)
    flags = random_flag_tuple(2, 4, rng)
    c = t_j(flags, (0, 0, 0, 0))
    assert c.m == 2  # four generic vectors in C^2
    assert c.nonzero_images()


def test_t_j_saturated_denominator_has_rank_zero():
    """When the denominator span is already everything, the projected chain
    vectors are pure rounding noise and the quotient must have m = 0."""
    rng = np.random.default_rng(4)
    flags = random_flag_tuple(2, 4, rng)
    c = t_j(flags, (1, 1, 1, 1))
    assert c.m == 0
    assert not c.nonzero_images()
    assert vol_sigma3(c) == 0.0


def test_nonzero_images_contract():
    empty = Sigma3Class(m=0, images=np.zeros((0, 4)), scale=1.0)
    assert not empty.nonzero_images()
    imgs = np.eye(2, 4, dtype=complex)
    imgs[:, 3] = 0.0
    has_zero = Sigma3Class(m=2, images=imgs, scale=1.0)
    assert not has_zero.nonzero_images()
    assert vol_sigma3(has_zero) == 0.0
    good = Sigma3Class(m=2, images=np.eye(2, 4, dtype=complex) + 0.5, scale=1.0)
    assert good.nonzero_images()


def test_vol_sigma3_zero_unless_plane():
    one = Sigma3Class(m=1, images=np.ones((1, 4), dtype=complex), scale=1.0)
    three = Sigma3Class(m=3, images=np.eye(3, 4, dtype=complex) + 1.0, scale=1.0)
    assert vol_sigma3(one) == 0.0
    assert vol_sigma3(three) == 0.0


# ----------------------------------------------------------------------
# The cocycle B_n
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n,count", [(2, 1), (3, 4), (4, 10)])
def test_contributing_counts(n, count):
    rng = np.random.default_rng(n)
    flags = random_flag_tuple(n, 4, rng)
    js = contributing_j(flags)
    assert len(js) == count == n * (n * n - 1) // 6
    assert all(sum(J) == n - 2 for J in js)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_b_n_alternating(n):
    rng = np.random.default_rng(10 + n)
    flags = list(random_flag_tuple(n, 4, rng))
    base = b_n(flags)
    for i, j in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        swapped = list(flags)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert abs(b_n(swapped) + base) <= 1e-9 * max(1.0, abs(base))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_b_n_gl_invariant(n):
    rng = np.random.default_rng(20 + n)
    flags = list(random_flag_tuple(n, 4, rng))
    base = b_n(flags)
    for _ in range(3):
        g = random_gl(n, rng)
        moved = [AffineFlag.create(g @ f.vecs) for f in flags]
        assert abs(b_n(moved) - base) <= 1e-9 * max(1.0, abs(base))


def _reference_class(flags, J):
    """One sigma_3 class the direct way: project the chain vectors off the
    span of the concatenated prefixes, then read the quotient off an SVD."""
    raw = np.column_stack([f.vector(j) for f, j in zip(flags, J)])
    scale = np.linalg.norm(raw)
    proj = raw
    if sum(J):
        den = np.concatenate([f.prefix(j) for f, j in zip(flags, J)], axis=1)
        u, sv, _ = np.linalg.svd(den, full_matrices=False)
        basis = u[:, :int(np.count_nonzero(sv > 1e-8 * sv[0]))]
        proj = raw - basis @ (basis.conj().T @ raw)
    uw, sw, _ = np.linalg.svd(proj, full_matrices=False)
    m = int(np.count_nonzero(sw > 1e-8 * scale))
    return Sigma3Class(m=m, images=uw[:, :m].conj().T @ proj, scale=scale)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_classes_match_the_per_class_reference(n):
    """b_n, which sums only the classes with |J| = n-2 on tuples in general
    position, against the full sum over all n^4 index tuples, and
    contributing_j against a per-class loop, on the special tuples of the
    general-position test."""
    from itertools import product
    rng = np.random.default_rng(70 + n)
    for eps, four in zip((None,) * 3 + _PERTURBATIONS, _special_tuples(n, 4, rng)):
        classes = {J: _reference_class(four, J) for J in product(range(n), repeat=4)}
        value = b_n(four)
        assert abs(value - sum(b_n_j(four, J) for J in classes)) <= 1e-12
        # Near the rank cut an image can be as short as eps times the chain
        # vectors, so the rounding of two correct computations moves its
        # volume by about 1e-16 / eps.
        tol = 1e-12 if eps is None else 1e-14 / eps
        assert abs(value - sum(map(vol_sigma3, classes.values()))) <= tol
        assert contributing_j(four) == [J for J, c in classes.items()
                                        if c.m == 2 and c.nonzero_images()]
        for J in [(0, 0, 0, 0), (n - 1,) * 4, (n - 2, 0, 0, 0)]:
            c = t_j(four, J)
            assert c.m == classes[J].m
            assert abs(c.scale - classes[J].scale) <= 1e-12 * c.scale


def test_b2_is_bloch_wigner_of_the_first_vectors_cross_ratio():
    """For n = 2 only J = (0, 0, 0, 0) contributes: B_2 is D of the
    cross-ratio of the four first chain vectors."""
    rng = np.random.default_rng(50)
    for _ in range(20):
        flags = random_flag_tuple(2, 4, rng)
        v = [f.vector(0) for f in flags]

        def det(i, j):
            return v[i][0] * v[j][1] - v[i][1] * v[j][0]

        cr = det(0, 2) * det(1, 3) / (det(0, 3) * det(1, 2))
        assert abs(b_n(flags) - bloch_wigner(cr)) <= 1e-12


def _stacks(tuples):
    """Rows of four flags as (B, 4, n, n) stacks of orthonormal bases and
    chain vectors."""
    return (np.stack([[f.ortho for f in four] for four in tuples]),
            np.stack([[f.vecs for f in four] for four in tuples]))


def _determinant_route(tuples):
    """The rows of ``tuples`` that clear the determinant guard of ``_b_rows``,
    with the per-class volumes of that route and of the sigma_3 kernel on
    the classes with |J| = n-2, and the B_n of ``_b_rows``."""
    ortho, vecs = _stacks(tuples)
    n = ortho.shape[-1]
    general, dets = _general_rows(ortho)
    clear = general & (np.abs(dets) > np.sqrt(_RANK_CUT) * n ** (n / 2)).all(axis=1)
    ortho, vecs, dets = ortho[clear], vecs[clear], dets[clear]
    d = dets[:, _cross_blocks(n)]
    route = bloch_wigner(d[..., 0] * d[..., 1] / (d[..., 2] * d[..., 3]))
    js = _all_j(n)
    _, _, _, plane, kernel = _sigma3(ortho, vecs, js[js.sum(axis=1) == n - 2])
    assert plane.all()
    return clear, route, kernel, _b_rows(ortho, vecs)[0]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_determinant_route_matches_the_sigma3_kernel(n):
    """On rows that clear the guard, D of the cross-ratio of the block
    determinants equals the kernel's volume class by class, and B_n their
    sum."""
    rng = np.random.default_rng(100 + n)
    clear, route, kernel, total = _determinant_route([random_flag_tuple(n, 4, rng) for _ in range(24)])
    assert clear.sum() >= 12
    assert np.abs(route - kernel).max() <= 1e-12
    assert np.abs(total - kernel.sum(axis=1)).max() <= 1e-12


def test_determinant_route_matches_the_sigma3_kernel_on_b4_so4_rows():
    rng = np.random.default_rng(110)
    ab = 1.5 * (rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)))
    fixed = [flag_infinity(), standard_flags_so4(0, 0), standard_flags_so4(1, 1)]
    clear, route, kernel, total = _determinant_route([fixed + [standard_flags_so4(a, b)] for a, b in ab])
    assert clear.sum() >= 48
    assert np.abs(route - kernel).max() <= 1e-12
    assert np.abs(total - kernel.sum(axis=1)).max() <= 1e-12
    assert np.abs(total - b4_so4_batch(ab[clear, 0], ab[clear, 1])).max() <= 1e-12


def _mpmath_b_n(flags):
    """B_n in general position at 30 digits, independently of both routes:
    the sum over |J| = n-2 of D of the cross-ratio of the determinants of
    the chain-vector blocks v_i^1..v_i^{k_i} at K = J+e_i+e_k."""
    from itertools import product
    import mpmath as mp
    mp.mp.dps = 30
    n = flags[0].n
    vecs = [mp.matrix(f.vecs.tolist()) for f in flags]

    def delta(K):
        cols = [vecs[i][:, t] for i, k in enumerate(K) for t in range(k)]
        return mp.det(mp.matrix([[c[r] for c in cols] for r in range(n)]))

    def bloch_wigner_mp(z):
        return mp.im(mp.polylog(2, z)) + mp.arg(1 - z) * mp.log(abs(z))

    total = mp.mpf(0)
    for J in product(range(n), repeat=4):
        if sum(J) == n - 2:
            d = [delta(tuple(j + (t in pair) for t, j in enumerate(J)))
                 for pair in ((0, 2), (1, 3), (0, 3), (1, 2))]
            total += bloch_wigner_mp(d[0] * d[1] / (d[2] * d[3]))
    return float(total)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_b_n_matches_an_mpmath_reference(n):
    rng = np.random.default_rng(120 + n)
    for _ in range(2):
        flags = random_flag_tuple(n, 4, rng)
        assert abs(b_n(flags) - _mpmath_b_n(flags)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_b_n_vanishes_on_a_repeated_flag(n):
    """Alternation forces B_n = 0 when two flags coincide; these tuples reach
    the classes with m != 2 and with an empty denominator."""
    rng = np.random.default_rng(60 + n)
    f, g, h = random_flag_tuple(n, 3, rng)
    for four in ([f, f, g, h], [f, g, f, h], [g, h, f, f], [f, g, h, g]):
        assert abs(b_n(four)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cocycle_residual_vanishes(n):
    rng = np.random.default_rng(30 + n)
    for _ in range(3):
        flags = random_flag_tuple(n, 5, rng)
        assert abs(cocycle_residual(flags)) <= 1e-8


@pytest.mark.parametrize("n", [3, 4])
def test_face_sum_vanishes_off_general_position(n):
    """B_n stays a cocycle when one flag shares its first line with another,
    so that some faces are off general position; summing only the classes
    with |J| = n-2 there leaves face sums of order 1."""
    rng = np.random.default_rng(90 + n)
    for t in range(4):
        five = list(random_flag_tuple(n, 5, rng))
        shared = five[4].vecs.copy()
        shared[:, 0] = five[t].vecs[:, 0]
        five[4] = AffineFlag.create(shared)
        faces = [five[:i] + five[i + 1:] for i in range(5)]
        assert not all(general_position(face) for face in faces)
        assert abs(sum((-1) ** i * b_n(face) for i, face in enumerate(faces))) <= 1e-10


def test_b_n_bounded_by_volume_bound():
    rng = np.random.default_rng(40)
    bound = 10 * (4 * 4 * 4 - 4) / 6 * v_max()  # n(n^2-1)/6 contributions at n=4... loose
    for _ in range(5):
        flags = random_flag_tuple(4, 4, rng)
        assert abs(b_n(flags)) <= bound


def test_b_n_arity():
    flags = random_flag_tuple(2, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        b_n(flags[:3])
    with pytest.raises(ValueError):
        cocycle_residual(flags)


# ----------------------------------------------------------------------
# Quadric boundary machinery
# ----------------------------------------------------------------------

def test_boundary_lines_are_totally_isotropic():
    space = so4_space()
    rng = np.random.default_rng(5)
    for _ in range(5):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        for plane in boundary_lines(a, b) + infinity_lines():
            for u in plane.T:
                for v in plane.T:
                    assert abs(space.omega(u, v)) < 1e-12


def test_boundary_vector_is_the_intersection():
    a, b = 0.7 + 0.2j, -0.4 + 1.1j
    point = BoundaryPoint(a, b)
    v = point.vector()
    assert np.allclose(v, [b, 1.0, a * b, -a])
    lplus, lminus = point.lines()
    for plane in (lplus, lminus):
        q, _ = np.linalg.qr(plane)
        res = v - q @ (q.conj().T @ v)
        assert np.linalg.norm(res) < 1e-12 * np.linalg.norm(v)


def test_rho_flag_chain_structure():
    rng = np.random.default_rng(6)
    for _ in range(5):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        lplus, lminus = boundary_lines(a, b)
        f = rho_flag(lplus, lminus)
        # First chain vector is the intersection line.
        assert chordal_distance(f.vector(0), BoundaryPoint(a, b).vector()) < 1e-9
        # F^2 = l+: both plane generators lie in the 2-prefix.
        p2 = f.prefix(2)
        for u in lplus.T:
            res = u - p2 @ (p2.conj().T @ u)
            assert np.linalg.norm(res) < 1e-9 * np.linalg.norm(u)
        # F^3 = l+ + l-.
        p3 = f.prefix(3)
        for u in lminus.T:
            res = u - p3 @ (p3.conj().T @ u)
            assert np.linalg.norm(res) < 1e-9 * np.linalg.norm(u)


def test_rho_flag_rejects_transverse_planes():
    lplus, _ = boundary_lines(0.3, 0.8)
    _, lminus_far = infinity_lines()
    # l+_a and l-_infty = <e2, f1> intersect in a line for any a, so build a
    # genuinely transverse pair instead: two l+ planes of different parameter.
    other, _ = boundary_lines(1.7, 0.8)
    with pytest.raises(ValueError):
        rho_flag(lplus, other)


def test_standard_flags_special_parameters():
    # The displayed generators degenerate at a = 0 and b = 0; the fallback
    # chain must still produce valid flags.
    for a, b in [(0, 0), (0, 1), (1, 0), (1, 1), (0.5, 0.5)]:
        f = standard_flags_so4(a, b)
        assert isinstance(f, AffineFlag)
        assert chordal_distance(f.vector(0), BoundaryPoint(a, b).vector()) < 1e-9


def test_flag_infinity_chain():
    f = flag_infinity()
    e2 = np.array([1, 0, 0, 0], dtype=complex)
    f1 = np.array([0, 0, 1, 0], dtype=complex)
    f2 = np.array([0, 0, 0, 1], dtype=complex)
    assert chordal_distance(f.vector(0), f1) < 1e-12
    p2 = f.prefix(2)
    for u in (f1, f2):
        assert np.linalg.norm(u - p2 @ (p2.conj().T @ u)) < 1e-12
    p3 = f.prefix(3)
    assert np.linalg.norm(e2 - p3 @ (p3.conj().T @ e2)) < 1e-12


def test_flip_to_special():
    space = so4_space()
    rng = np.random.default_rng(7)
    g = random_group_element(space, rng)
    h = flip_to_special(g)
    assert abs(h.det() - 1) < 1e-6
    if abs(g.det() - 1) < 1e-6:
        assert np.array_equal(h.m, g.m)
    # An already-special element is returned unchanged.
    hh = flip_to_special(h)
    assert np.array_equal(hh.m, h.m)
    with pytest.raises(ValueError):
        flip_to_special(GroupElement(space=space, m=2.0 * np.eye(4, dtype=complex)))


# ----------------------------------------------------------------------
# The restricted cocycle and its closed form
# ----------------------------------------------------------------------

def test_b4_so4_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(15):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        want = 2.0 * (bloch_wigner(a) + bloch_wigner(b))
        assert abs(b4_so4(a, b) - want) <= 1e-8 * max(1.0, abs(want))


def test_b4_so4_special_points_vanish():
    # D vanishes at 0, 1, and on the whole real axis.
    for a, b in [(0.5, 0.5), (2.0, -3.0), (0.25, 17.0)]:
        assert abs(b4_so4(a, b)) < 1e-14


def test_b4_so4_maximum_point():
    omega = np.exp(1j * np.pi / 3)
    val = b4_so4(omega, omega)
    assert abs(val - 4 * v_max()) <= 1e-8


def test_per_j_closed_forms():
    from fslab.suites import _PERJ_FORMS
    rng = np.random.default_rng(9)
    f_inf = flag_infinity()
    f0 = standard_flags_so4(0, 0)
    f1 = standard_flags_so4(1, 1)
    for _ in range(5):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        flags = [f_inf, f0, f1, standard_flags_so4(a, b)]
        assert sorted(contributing_j(flags)) == sorted(_PERJ_FORMS)
        for J, form in _PERJ_FORMS.items():
            assert abs(b_n_j(flags, J) - form(a, b)) <= 1e-9


def test_b4_so4_batch_matches_scalar():
    rng = np.random.default_rng(10)
    a = rng.normal(size=12) + 1j * rng.normal(size=12)
    b = rng.normal(size=12) + 1j * rng.normal(size=12)
    batch = b4_so4_batch(a, b)
    assert batch.shape == (12,)
    for i in range(12):
        assert abs(batch[i] - b4_so4(a[i], b[i])) <= 1e-12 * max(1.0, abs(batch[i]))


def test_b4_so4_batch_special_points():
    a = np.array([0.0, 1.0, 0.5, 17.0])
    b = np.array([0.0, 1.0, 0.5, -2.0])
    assert np.abs(b4_so4_batch(a, b)).max() < 1e-14
    # Boundary points with a at or near 0 and 1 are not in general position
    # with the fixed flags; the batch must sum every class there, as the
    # scalar path does.
    a = np.array([0.0, 1.0, 1e-10, 1.0 + 1e-10, 1e-9j])
    b = np.full(a.shape, 0.3 + 0.2j)
    batch = b4_so4_batch(a, b)
    for i in range(len(a)):
        want = 2.0 * (bloch_wigner(a[i]) + bloch_wigner(b[i]))
        assert abs(batch[i] - want) <= 1e-8
        assert abs(batch[i] - b4_so4(a[i], b[i])) <= 1e-8


# Boundary points where LAPACK's SVD fails to converge on a wide sigma_3
# denominator block (J = (0, 3, 0, 3) at (1e-7, 1), for example).
_SVD_FAILURES = [(1e-7, 1), (3e-8, np.exp(1j * np.pi / 3)), (-1e-7, 1 + 1e-7), (1e-10, 1)]


@pytest.mark.parametrize("a,b", _SVD_FAILURES)
def test_b4_so4_near_the_boundary_survives_an_svd_failure(a, b):
    want = 2.0 * (bloch_wigner(a) + bloch_wigner(b))
    assert abs(b4_so4(a, b) - want) <= 1e-8
    assert abs(b4_so4_batch(np.array([a]), np.array([b]))[0] - want) <= 1e-8


def test_b4_so4_reports_an_svd_failure_in_both_orientations():
    """At (1e-9, 1) the SVD may fail on a block and on its transpose; that is
    a numerical failure, reported as ``RuntimeError``, never a LAPACK error."""
    try:
        value = b4_so4(1e-9, 1)
    except RuntimeError as exc:
        assert "did not converge" in str(exc)
    else:
        assert abs(value - 2.0 * bloch_wigner(1e-9)) <= 1e-8
