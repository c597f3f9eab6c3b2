"""Norm constants, family bookkeeping, and the Monte Carlo sup estimator."""

from fractions import Fraction

import numpy as np
import pytest

from fslab.dilog import v_max
from fslab.flags import AffineFlag, b_n
from fslab.norms import (
    FAMILIES,
    STATUS_CONJECTURE,
    STATUS_PROVEN,
    FamilyTag,
    bn_coefficient,
    dynkin_index,
    estimate_sup,
    family_norm,
    gromov_norm_bn,
    operator_norm_res2,
    sup_problem,
)

# Independent oracle: indices of the principal three-dimensional subgroup,
# computed once in exact arithmetic from the defining representations.
INDEX_TABLE = {
    "A": [1, 4, 10, 20, 35, 56, 84, 120, 165, 220],
    "B": [2, 10, 28, 60, 110, 182, 280, 408, 570, 770],
    "C": [1, 10, 35, 84, 165, 286, 455, 680, 969, 1330],
    "D": [0, 2, 10, 28, 60, 110, 182, 280, 408, 570],
}


# ----------------------------------------------------------------------
# Exact bookkeeping
# ----------------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_dynkin_index_matches_table(family):
    for r in range(1, 11):
        got = dynkin_index(FamilyTag(family, r))
        assert isinstance(got, int)
        assert got == INDEX_TABLE[family][r - 1]


def test_bn_coefficient_exact():
    assert bn_coefficient(2) == Fraction(1)
    assert bn_coefficient(3) == Fraction(4)
    assert bn_coefficient(4) == Fraction(10)
    for n in range(2, 12):
        assert bn_coefficient(n) == Fraction(n * (n * n - 1), 6)
    with pytest.raises(ValueError):
        bn_coefficient(1)
    with pytest.raises(ValueError):
        bn_coefficient(2.0)


def test_gromov_norm_values():
    v = v_max()
    for n in range(2, 9):
        want = n * (n * n - 1) / 6 * v
        assert abs(gromov_norm_bn(n) - want) <= 1e-12 * want


def test_family_tag_validation():
    with pytest.raises(ValueError):
        FamilyTag("E", 8)
    with pytest.raises(ValueError):
        FamilyTag("A", 0)
    with pytest.raises(ValueError):
        FamilyTag("A", 1.5)


def test_family_tag_properties():
    assert FamilyTag("A", 3).ambient_n == 4
    assert FamilyTag("B", 3).ambient_n == 7
    assert FamilyTag("C", 3).ambient_n == 6
    assert FamilyTag("D", 3).ambient_n == 6
    assert FamilyTag("A", 1).restriction_factor == 1
    assert FamilyTag("B", 1).restriction_factor == Fraction(1, 2)
    assert FamilyTag("C", 1).restriction_factor == 1
    assert FamilyTag("D", 1).restriction_factor == Fraction(1, 2)
    assert FamilyTag("D", 1).exceptional
    assert FamilyTag("D", 2).exceptional
    assert not FamilyTag("D", 3).exceptional
    assert not FamilyTag("B", 2).exceptional


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_family_norm_proven_families(family):
    for r in range(1, 11):
        stmt = family_norm(FamilyTag(family, r))
        assert stmt.status == STATUS_PROVEN
        assert stmt.coefficient == dynkin_index(stmt.tag)
        # The proven route: restriction factor times the ambient norm.
        want = stmt.tag.restriction_factor * bn_coefficient(stmt.tag.ambient_n)
        assert stmt.coefficient == want


def test_family_norm_d_is_conjectural_beyond_rank_two():
    two = family_norm(FamilyTag("D", 2))
    assert two.status == STATUS_PROVEN
    assert two.coefficient == 2
    for r in (3, 4, 5, 8):
        stmt = family_norm(FamilyTag("D", r))
        assert stmt.status == STATUS_CONJECTURE
        assert stmt.coefficient == dynkin_index(stmt.tag)


def test_rank_two_norm_genuinely_drops():
    """The proven D_2 value is strictly below the naive restriction factor
    times the ambient norm — the whole point of the rank-2 computation."""
    tag = FamilyTag("D", 2)
    naive = tag.restriction_factor * bn_coefficient(tag.ambient_n)
    assert family_norm(tag).coefficient < naive


# ----------------------------------------------------------------------
# The sup estimator
# ----------------------------------------------------------------------

def linear_sampler(seed, start, count):
    idx = np.arange(start, start + count, dtype=float)
    return np.stack([idx, np.full(count, seed, dtype=float)], axis=1).astype(complex)


def test_estimate_sup_exhaustive_small_case():
    # |value| = 1 / (1 + |idx - 37|), maximized exactly at trial 37.
    def cocycle(params):
        return 1.0 / (1.0 + np.abs(params[:, 0].real - 37.0))

    val, arg = estimate_sup(cocycle, linear_sampler, 1000, seed=5, refine=False)
    assert val == 1.0
    assert arg[0] == 37.0
    assert arg[1] == 5.0


def test_estimate_sup_tie_breaks_to_smallest_index():
    def cocycle(params):
        return np.ones(params.shape[0])

    _, arg = estimate_sup(cocycle, linear_sampler, 50_000, refine=False)
    assert arg[0] == 0.0  # many ties; first trial wins


def test_estimate_sup_is_independent_of_the_chunking():
    # 60 000 trials span four chunks, and |sin| peaks in many of them.
    def cocycle(params):
        return np.abs(np.sin(params[:, 0].real * 0.001))

    val, arg = estimate_sup(cocycle, linear_sampler, 60_000, seed=2, refine=False)
    params = linear_sampler(2, 0, 60_000)
    k = int(np.argmax(cocycle(params)))
    assert val == cocycle(params)[k]
    assert np.array_equal(arg, params[k])


def test_estimate_sup_monotone_in_trials():
    prob = sup_problem("vol-p1")
    vals = [prob.estimate(t, refine=False)[0] for t in (10, 100, 1000)]
    assert vals == sorted(vals)


def test_estimate_sup_refine_only_improves():
    prob = sup_problem("vol-p1")
    raw, _ = prob.estimate(200, refine=False)
    polished, _ = prob.estimate(200, refine=True)
    assert polished >= raw
    assert polished <= v_max() + 1e-6


def test_estimate_sup_validates_trials():
    with pytest.raises(ValueError):
        estimate_sup(lambda p: np.ones(p.shape[0]), linear_sampler, 0)


def test_estimate_sup_wraps_sampler_failure():
    def bad_sampler(seed, start, count):
        raise KeyError("boom")

    with pytest.raises(RuntimeError, match=r"sampler failed on trials \[0, "):
        estimate_sup(lambda p: np.ones(p.shape[0]), bad_sampler, 10)


def test_estimate_sup_wraps_cocycle_failure():
    def bad_cocycle(params):
        raise FloatingPointError("overflow")

    with pytest.raises(RuntimeError, match=r"cocycle failed on trials"):
        estimate_sup(bad_cocycle, linear_sampler, 10, refine=False)


def test_estimate_sup_checks_sampler_shape():
    def short_sampler(seed, start, count):
        return np.zeros((count - 1, 2))

    with pytest.raises(RuntimeError, match="returned"):
        estimate_sup(lambda p: np.ones(p.shape[0]), short_sampler, 10)


# ----------------------------------------------------------------------
# Named problems
# ----------------------------------------------------------------------

def test_sup_problem_registry():
    p1 = sup_problem("vol-p1")
    assert p1.dim == 4 and p1.target_is_sup
    assert abs(p1.target - v_max()) < 1e-15
    so4 = sup_problem("b4-so4")
    assert so4.dim == 2 and so4.target_is_sup
    assert abs(so4.target - 4 * v_max()) < 1e-14
    bn = sup_problem("b-n", n=3)
    assert bn.dim == 36 and not bn.target_is_sup
    assert abs(bn.target - gromov_norm_bn(3)) < 1e-12
    with pytest.raises(ValueError):
        sup_problem("nope")


def test_vol_p1_estimate_stays_below_sup():
    prob = sup_problem("vol-p1")
    val, arg = prob.estimate(2000)
    assert 0.9 < val <= v_max() + 1e-9
    assert arg.shape == (4,)


def test_b4_so4_estimate_approaches_target():
    prob = sup_problem("b4-so4")
    val, arg = prob.estimate(2000)
    assert val <= prob.target + 1e-9
    assert val > prob.target - 0.25  # small-sample run already lands close
    omega = np.exp(1j * np.pi / 3)
    assert min(abs(arg[0] - omega), abs(arg[0] - omega.conjugate())) < 0.2


def test_b_n_samples_stay_below_gromov_norm():
    prob = sup_problem("b-n", n=2)
    val, _ = prob.estimate(50)
    assert 0 < val < prob.target


@pytest.mark.parametrize("n", [2, 3, 4])
def test_b_n_problem_matches_a_per_row_loop(n):
    """The row-batched evaluator of the b-n problem against b_n on each row."""
    prob = sup_problem("b-n", n=n)
    rows = prob.sampler(3, 0, 24)
    want = [b_n([AffineFlag.create(m) for m in row.reshape(4, n, n)]) for row in rows]
    assert np.abs(prob.cocycle(rows) - want).max() <= 1e-12


def test_b_n_problem_rejects_dependent_flag_vectors():
    prob = sup_problem("b-n", n=3)

    def sampler(seed, start, count):
        rows = prob.sampler(seed, start, count)
        rows[count // 2, 9:18] = 1.0  # the second flag of one row has rank 1
        return rows

    with pytest.raises(ValueError, match="not independent"):
        prob.cocycle(sampler(0, 0, 8))
    with pytest.raises(RuntimeError, match="cocycle failed") as info:
        estimate_sup(prob.cocycle, sampler, 8, refine=False)
    assert isinstance(info.value.__cause__, ValueError)


def test_operator_norm_res2():
    exact, ratio = operator_norm_res2(trials=3000, seed=1)
    assert exact == Fraction(2, 5)
    assert 0.3 < ratio <= 0.4 + 1e-9
