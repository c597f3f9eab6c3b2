"""The three workloads: inputs made from the seed, the operations each round
repeats, and the checks of their outputs.

A workload builds a fixed list of operations from its seed.  The timed loop
runs that list in whole rounds, one operation after the other (a closed loop
with one client), so every run attempts the same operations in the same
proportions.  Operations call the program through module and class
attributes, so that wrappers installed by the tracer are the ones called.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

import checks

# ----------------------------------------------------------------------
# reduce-mixed
# ----------------------------------------------------------------------

SIGNATURES = ((+1, 1), (-1, 0), (+1, 0))
RANKS = range(2, 13)
#: Orthogonal tuples of rank >= 4 come from a corpus drawn with this constant
#: seed.  The Witt-completion fault makes such tuples fail now and then;
#: drawn from --seed, the number of failures would change with the seed.
CORPUS_SEED = 20230401
CORPUS_MIN_RANK = 4
#: Three tuples that hit the Witt-completion fault on every run (see README).
KNOWN_FAILURES = Path(__file__).resolve().parent / "known_failures.json"
#: Messages of the known witt_complete fault.
KNOWN_FAULTS = (
    "inconsistent complement dimension for the unit slot",
    "pairs are not adapted",
    "matrix fails m^T J m = J",
    "Witt completion failed its Gram check",
)


def _normal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def isotropic_vector(rng, eps: int, d: int, r: int) -> np.ndarray:
    """A Gaussian vector; for eps = +1 the f_r coordinate is solved so that
    q(v) = 0, with the e_r coordinate kept away from 0."""
    n = 2 * r + d
    J = checks.gram_matrix(eps, d, r)
    while True:
        v = _normal(rng, n)
        if eps == -1:
            return v
        v[n - 1] = 0
        if abs(v[0]) < 0.3:
            continue
        v[n - 1] = -(v @ J @ v) / (2 * v[0])
        return v


def _delta(z1, z2, eps):
    g = 1 - z1 - z2
    return g * g - 2 * (1 + eps) * z1 * z2


def generic_tuple(rng, eps: int, d: int, r: int, k: int) -> np.ndarray:
    """k isotropic vectors with margins on the genericity conditions the
    reductions require: pairings, general position and, for k = 4 and 5,
    the discriminant of every 4-point face."""
    J = checks.gram_matrix(eps, d, r)
    while True:
        V = np.array([isotropic_vector(rng, eps, d, r) for _ in range(k)])
        norms = np.linalg.norm(V, axis=1)
        w = V @ J @ V.T
        rel = np.abs(w) / np.outer(norms, norms)
        if rel[np.triu_indices(k, 1)].min() <= 1e-4:
            continue
        sv = np.linalg.svd(V, compute_uv=False)
        if sv[-1] <= 1e-6 * sv[0]:
            continue
        faces = [[j for j in range(k) if j != i] for i in range(k)] if k == 5 else [list(range(4))] if k == 4 else []
        if any(abs(_delta(*checks.cross_ratios(w, *f)[1:], eps)) <= 1e-6 for f in faces):
            continue
        return V


def reduce_cells(seeded: bool):
    """(eps, d, r, k) of the seeded grid or of the fixed corpus: one tuple
    per cell and round."""
    for eps, d in SIGNATURES:
        for r in RANKS:
            if (eps == +1 and r >= CORPUS_MIN_RANK) == seeded:
                continue
            for k in (3, 4, 5):
                if k == 5 and (eps, d) == (+1, 0) and r < 3:
                    continue  # no canonical quintuple below rank 3 there
                yield eps, d, r, k


class Workload:
    """A workload: ``ops`` (the operations of one round), ``check`` and
    ``describe`` are defined by each subclass."""

    def failures(self, outputs) -> list[str]:
        """Failed operations of the first round that are not expected."""
        return [f"{type(r).__name__}: {r}" for r in outputs if isinstance(r, Exception)]


class ReduceMixed(Workload):
    name = "reduce-mixed"

    def __init__(self, seed: int):
        import fslab.crossratios as C
        import fslab.forms as F
        import fslab.reduction as R

        reducers = {3: "reduce_triple", 4: "reduce_quadruple", 5: "reduce_quintuple"}
        self.cases = []  # (eps, d, r, k, vectors, fixed: not drawn from --seed)
        for seeded, rng in ((True, np.random.default_rng([seed, 1])),
                            (False, np.random.default_rng(CORPUS_SEED))):
            for eps, d, r, k in reduce_cells(seeded):
                self.cases.append((eps, d, r, k, generic_tuple(rng, eps, d, r, k), not seeded))
        for case in json.loads(KNOWN_FAILURES.read_text(encoding="utf-8")):
            V = np.array([[complex(re, im) for re, im in v] for v in case["points"]])
            self.cases.append((case["epsilon"], case["d"], case["r"], len(V), V, True))
        order = np.random.default_rng([seed, 2]).permutation(len(self.cases))
        self.cases = [self.cases[i] for i in order]
        spaces = {}
        self.ops = []
        for eps, d, r, k, V, _ in self.cases:
            space = spaces.setdefault((eps, d, r), F.make_space(eps, d, r))

            def op(space=space, V=V, name=reducers[k]):
                return getattr(R, name)(C.ConfigTuple.from_vectors(space, V))

            self.ops.append(op)

    def check(self, outputs) -> list[str]:
        out = []
        triples = {}
        for (eps, d, r, k, V, _), res in zip(self.cases, outputs):
            if isinstance(res, Exception):
                continue
            canonical = np.asarray(res.canonical.vectors)
            for msg in checks.check_reduction(eps, d, r, V, np.asarray(res.g.m), canonical):
                out.append(f"({eps:+d},{d},r={r},k={k}): {msg}")
            if k == 3:
                triples.setdefault((eps, d, r), []).append(canonical)
        for key, canon in triples.items():
            out.extend(f"{key}: {msg}" for msg in checks.check_same_canonical(canon))
        return out

    def failures(self, outputs) -> list[str]:
        """Failed operations whose fault is not the known witt_complete one,
        or whose input was drawn from --seed."""
        out = []
        for (eps, d, r, k, _, fixed), res in zip(self.cases, outputs):
            if isinstance(res, Exception):
                known = any(m in str(res) for m in KNOWN_FAULTS)
                if not (known and fixed):
                    out.append(f"({eps:+d},{d},r={r},k={k}): {type(res).__name__}: {res}")
        return out

    def describe(self) -> dict:
        return {"ops_per_s": "reduce_per_s", "p50_ms": "reduce_p50_ms", "tail_ms": "reduce_tail_ms"}


# ----------------------------------------------------------------------
# sup-batch
# ----------------------------------------------------------------------

#: Trials of one job, per problem.  A vol-p1 job scans 32768 rows; a b4-so4
#: job scans 512 rows and then spends most of its time in the polish.
SUP_TRIALS = {"vol-p1": 1 << 15, "b4-so4": 1 << 9}
SUP_SAMPLE_ROWS = 16


class SupBatch(Workload):
    """One operation is one job of each problem, run back to back."""

    name = "sup-batch"

    def __init__(self, seed: int):
        import fslab.norms as N

        self.N = N
        rng = np.random.default_rng([seed, 3])
        self.jobs = [(name, trials, int(rng.integers(0, 2 ** 31))) for name, trials in SUP_TRIALS.items()]
        self.samples = {name: np.sort(rng.choice(trials, SUP_SAMPLE_ROWS, replace=False))
                        for name, trials in SUP_TRIALS.items()}
        self.job_seconds = {name: [] for name in SUP_TRIALS}
        clock = time.perf_counter

        def op():
            results = []
            for name, trials, job_seed in self.jobs:
                t0 = clock()
                results.append(N.sup_problem(name).estimate(trials, job_seed))
                self.job_seconds[name].append(clock() - t0)
            return results

        self.ops = [op]

    def check(self, outputs) -> list[str]:
        out = []
        for results in outputs:
            for (name, trials, job_seed), (estimate, argmax) in zip(self.jobs, results):
                prob = self.N.sup_problem(name)
                rows = np.concatenate([prob.sampler(job_seed, int(i), 1) for i in self.samples[name]])
                values = prob.cocycle(rows)
                out.extend(checks.check_sup(name, estimate, argmax, rows, values))
        return out

    def describe(self) -> dict:
        return {"ops_per_s": "sup_pairs_per_s", "p50_ms": "sup_pair_p50_ms", "tail_ms": "sup_pair_tail_ms"}

    def trial_rates(self) -> dict:
        return {f"{name.replace('-', '_')}_trials_per_s": SUP_TRIALS[name] / float(np.median(t))
                for name, t in self.job_seconds.items() if t}


# ----------------------------------------------------------------------
# flag-cocycle
# ----------------------------------------------------------------------

#: One round: COCYCLE_PER_KIND passes over COCYCLE_KINDS.  B_5 has two slots,
#: so that the evaluations of n = 4 (random and boundary) hold the middle
#: third of the latency order and the median falls in the middle of them.
COCYCLE_PER_KIND = 4
COCYCLE_KINDS = (2, 5, 3, "boundary", 4, 5)
#: 5-tuples of flags whose face sum is checked, per n.
FACE_SUM_TUPLES = {2: 2, 3: 2, 4: 1}


def well_conditioned_gl(rng, n: int) -> np.ndarray:
    """U diag(s) W with unitary U, W and s in [0.5, 2]: condition <= 4."""
    u, _ = np.linalg.qr(_normal(rng, (n, n)))
    w, _ = np.linalg.qr(_normal(rng, (n, n)))
    return u @ np.diag(rng.uniform(0.5, 2.0, n)) @ w


class FlagCocycle(Workload):
    name = "flag-cocycle"

    def __init__(self, seed: int):
        import fslab.flags as FL

        self.FL = FL
        rng = np.random.default_rng([seed, 4])
        fixed = [FL.flag_infinity().vecs, FL.standard_flags_so4(0, 0).vecs, FL.standard_flags_so4(1, 1).vecs]
        self.cases = []  # (n, four matrices, (a, b) or None)
        for _ in range(COCYCLE_PER_KIND):
            for kind in COCYCLE_KINDS:
                if kind == "boundary":
                    a, b = _normal(rng, 2)
                    self.cases.append((4, fixed + [FL.standard_flags_so4(a, b).vecs], (a, b)))
                else:
                    self.cases.append((kind, [_normal(rng, (kind, kind)) for _ in range(4)], None))
        self.moves = [well_conditioned_gl(rng, n) for n, _, _ in self.cases]
        self.five_tuples = [(n, [_normal(rng, (n, n)) for _ in range(5)])
                            for n, count in FACE_SUM_TUPLES.items() for _ in range(count)]
        self.ops = [lambda mats=mats: self.evaluate(mats) for _, mats, _ in self.cases]

    def evaluate(self, mats):
        FL = self.FL
        return FL.b_n([FL.AffineFlag.create(m) for m in mats])

    def check(self, outputs) -> list[str]:
        out = []
        for (n, mats, ab), value, g in zip(self.cases, outputs, self.moves):
            if isinstance(value, Exception):
                continue
            out.extend(checks.check_bn_value(n, value))
            if n == 2:
                out.extend(checks.check_b2(mats, value))
            if ab is not None:
                out.extend(checks.check_boundary(*ab, value))
            out.extend(checks.check_swap(value, self.evaluate([mats[1], mats[0]] + mats[2:])))
            out.extend(checks.check_invariance(value, self.evaluate([g @ m for m in mats])))
        for n, mats in self.five_tuples:
            faces = [self.evaluate(mats[:i] + mats[i + 1:]) for i in range(5)]
            for v in faces:
                out.extend(checks.check_bn_value(n, v))
            out.extend(checks.check_face_sum(faces))
        return out

    def describe(self) -> dict:
        return {"ops_per_s": "cocycle_per_s", "p50_ms": "cocycle_p50_ms", "tail_ms": "cocycle_tail_ms"}


WORKLOADS = {w.name: w for w in (ReduceMixed, SupBatch, FlagCocycle)}
