"""Each output check accepts a genuine program output and rejects a perturbed one.

Run from the repository root:  python3 -m pytest benchmark/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from fslab import flags, forms, norms, reduction  # noqa: E402
from fslab.crossratios import ConfigTuple  # noqa: E402


def test_gram_matrix_follows_the_documented_basis_order():
    for eps, d in forms.ADMISSIBLE:
        J = checks.gram_matrix(eps, d, 3)
        space = forms.make_space(eps, d, 3)
        for i in (1, 2, 3):
            e, f = space.e(i), space.f(i)
            assert e @ J @ f == 1 and f @ J @ e == eps and e @ J @ e == 0
        if d:
            assert space.h() @ J @ space.h() == 1


def test_bloch_wigner_oracle_reference_values():
    assert checks.V_MAX == pytest.approx(1.0149416064096536, abs=1e-15)
    assert checks.bloch_wigner(2.0) == 0.0  # D vanishes on the real line
    z = 0.3 + 0.8j
    assert checks.bloch_wigner(np.conj(z)) == pytest.approx(-checks.bloch_wigner(z), abs=1e-15)
    assert checks.bloch_wigner(1 - z) == pytest.approx(-checks.bloch_wigner(z), abs=1e-14)


# ----------------------------------------------------------------------
# reduce-mixed
# ----------------------------------------------------------------------

def _reduced(eps, d, r, k, seed):
    V = workloads.generic_tuple(np.random.default_rng(seed), eps, d, r, k)
    reducer = {3: reduction.reduce_triple, 4: reduction.reduce_quadruple, 5: reduction.reduce_quintuple}[k]
    res = reducer(ConfigTuple.from_vectors(forms.make_space(eps, d, r), V))
    return V, np.array(res.g.m), np.array(res.canonical.vectors)


@pytest.mark.parametrize("eps,d,r,k", [(1, 1, 3, 4), (-1, 0, 4, 5), (1, 0, 3, 3), (1, 0, 5, 5)])
def test_reduction_check_accepts_program_output(eps, d, r, k):
    V, g, canon = _reduced(eps, d, r, k, 1)
    assert checks.check_reduction(eps, d, r, V, g, canon) == []


def test_reduction_check_rejects_a_perturbed_group_element():
    V, g, canon = _reduced(1, 1, 3, 4, 2)
    g[1, 2] += 1e-6
    assert any("g^T J g" in m for m in checks.check_reduction(1, 1, 3, V, g, canon))


def test_reduction_check_rejects_a_moved_canonical_point():
    V, g, canon = _reduced(-1, 0, 3, 4, 3)
    canon[2] = canon[2] + 1e-6 * canon[3]
    msgs = checks.check_reduction(-1, 0, 3, V, g, canon)
    assert any("from canonical point 2" in m for m in msgs)


def test_reduction_check_rejects_a_non_isotropic_canonical_point():
    V, g, canon = _reduced(1, 0, 3, 4, 4)
    canon[1, 0] += 1e-3
    assert any("not isotropic" in m for m in checks.check_reduction(1, 0, 3, V, g, canon))


def test_reduction_check_rejects_other_cross_ratios():
    V, _, _ = _reduced(1, 1, 3, 5, 5)
    _, g2, canon2 = _reduced(1, 1, 3, 5, 6)
    msgs = checks.check_reduction(1, 1, 3, V, g2, canon2)
    assert any("cross-ratios differ" in m for m in msgs)


def test_triples_of_one_space_share_their_canonical_tuple():
    canons = [_reduced(-1, 0, 3, 3, s)[2] for s in (7, 8, 9)]
    assert checks.check_same_canonical(canons) == []
    canons[2][1] = canons[2][1] + 1e-6 * canons[2][0]
    assert checks.check_same_canonical(canons) != []


# ----------------------------------------------------------------------
# sup-batch
# ----------------------------------------------------------------------

@pytest.fixture(scope="module", params=sorted(workloads.SUP_TRIALS))
def sup_job(request):
    name = request.param
    prob = norms.sup_problem(name)
    estimate, argmax = prob.estimate(workloads.SUP_TRIALS[name], 11)
    rows = np.concatenate([prob.sampler(11, i, 1) for i in (0, 5, 77)])
    return name, estimate, argmax, rows, prob.cocycle(rows)


def test_sup_check_accepts_program_output(sup_job):
    assert checks.check_sup(*sup_job) == []


def test_sup_check_rejects_an_estimate_off_its_argmax(sup_job):
    name, estimate, argmax, rows, values = sup_job
    msgs = checks.check_sup(name, estimate - 1e-6, argmax, rows, values)
    assert any("value at the argmax" in m for m in msgs)


def test_sup_check_rejects_an_estimate_above_the_target(sup_job):
    name, estimate, argmax, rows, values = sup_job
    msgs = checks.check_sup(name, checks.SUP_TARGET[name] + 1e-6, argmax, rows, values)
    assert any("exceeds the target" in m for m in msgs)


def test_sup_check_rejects_an_estimate_far_below_the_target(sup_job):
    name, estimate, argmax, rows, values = sup_job
    worse = argmax.copy()
    worse[0] += 0.7  # a poorer point, reported with its own true value
    value = checks.SUP_VALUE[name](worse)
    assert value < checks.SUP_TARGET[name] - checks.SUP_LOWER_TOL[name]
    msgs = checks.check_sup(name, value, worse, rows[:0], values[:0])
    assert any("below target" in m for m in msgs)


def test_sup_check_rejects_a_wrong_row_value_and_a_row_above_the_estimate(sup_job):
    name, estimate, argmax, rows, values = sup_job
    bad = values.copy()
    bad[1] += 1e-6
    assert any("scanned row evaluates" in m for m in checks.check_sup(name, estimate, argmax, rows, bad))
    msgs = checks.check_sup(name, estimate, argmax, argmax[None, :], [2 * estimate])
    assert any("scanned row evaluates" in m for m in msgs)
    low = checks.SUP_VALUE[name](rows[0]) * 0.5
    msgs = checks.check_sup(name, low, rows[1], rows[:1], values[:1])
    assert any("scanned row reaches" in m for m in msgs)


# ----------------------------------------------------------------------
# flag-cocycle
# ----------------------------------------------------------------------

def _bn(mats):
    return flags.b_n([flags.AffineFlag.create(m) for m in mats])


def _random_mats(n, count, seed):
    rng = np.random.default_rng(seed)
    return [workloads._normal(rng, (n, n)) for _ in range(count)]


def test_b2_check():
    mats = _random_mats(2, 4, 1)
    value = _bn(mats)
    assert checks.check_b2(mats, value) == []
    assert checks.check_b2(mats, value + 1e-7) != []
    assert checks.check_b2(mats, -value) != []


def test_boundary_check():
    a, b = 0.4 + 0.7j, -0.3 + 1.1j
    mats = [flags.flag_infinity().vecs, flags.standard_flags_so4(0, 0).vecs,
            flags.standard_flags_so4(1, 1).vecs, flags.standard_flags_so4(a, b).vecs]
    value = _bn(mats)
    assert checks.check_boundary(a, b, value) == []
    assert checks.check_boundary(a, b, value + 1e-6) != []
    assert checks.check_boundary(b, a + 0.1, value) != []


def test_swap_and_invariance_checks():
    mats = _random_mats(3, 4, 2)
    value = _bn(mats)
    swapped = _bn([mats[1], mats[0]] + mats[2:])
    g = workloads.well_conditioned_gl(np.random.default_rng(3), 3)
    moved = _bn([g @ m for m in mats])
    assert checks.check_swap(value, swapped) == []
    assert checks.check_invariance(value, moved) == []
    assert checks.check_swap(value, -swapped) != []
    assert checks.check_invariance(value, moved * (1 + 1e-6)) != []


def test_face_sum_and_bound_checks():
    mats = _random_mats(3, 5, 4)
    faces = [_bn(mats[:i] + mats[i + 1:]) for i in range(5)]
    assert checks.check_face_sum(faces) == []
    faces[3] += 1e-6
    assert checks.check_face_sum(faces) != []
    assert checks.check_bn_value(3, faces[0]) == []
    assert checks.check_bn_value(3, -(checks.bn_bound(3) + 1e-6)) != []


# ----------------------------------------------------------------------
# The tracer's accounting
# ----------------------------------------------------------------------

def test_tracer_self_time_and_failures():
    import tracer as tracing

    t = tracing.Tracer()

    def inner(x):
        if x < 0:
            raise RuntimeError("inner fault")
        return sum(range(20000))

    w_inner = t.wrap("forms", "forms.inner", inner)
    w_helper = t.wrap("forms", "forms.helper", lambda x: w_inner(x))
    w_outer = t.wrap("reduction", "reduction.outer", lambda x: w_helper(x) + w_helper(x))
    t.enabled = True
    w_outer(1)
    with pytest.raises(RuntimeError):
        w_outer(-1)
    t.enabled = False
    assert t.layers["forms"]["calls"] == 6 and t.layers["reduction"]["calls"] == 2
    # One exception crosses helper and inner (both forms) but enters the
    # layer once, and leaves reduction once.
    assert t.layers["forms"]["failed"] == 1 and t.layers["reduction"]["failed"] == 1
    outer_total = sum(end - start for name, parent, start, end in t.spans if parent == -1)
    assert t.layers["forms"]["self_ns"] + t.layers["reduction"]["self_ns"] == outer_total
    assert t.functions["forms.helper"]["self_ns"] >= t.functions["forms.inner"]["self_ns"]
    for _, parent, start, end in t.spans:
        if parent >= 0:
            assert t.spans[parent][2] <= start and end <= t.spans[parent][3]
