"""Exhaustive verification of the extractable-simulator interface properties.

One function per property of the simulator theorem (perfect RO-simulation,
commutation and almost-commutation of interfaces, idempotence, and the two
classical consistency probabilities), each returning a Report.  The
suite runner sweeps the standard grid n in {1,2}, m in {2,3} with the three
bundled commit functions.

The tree checks (2.c, 3 and 4) walk each preparation's tree once per report
(enumerate_paths, a closure replay) and extend it with branching.branch for
every x and t: S.RO by the native split SimulatorS.ro_branches, S.E by
branching.replayed.  Checks 3 and 4 measure mixtures, so _purified folds a
preparation's leaves (p_i, psi_i) into one root sum_i sqrt(p_i) |psi_i>_D |i>_L,
with a leaf register _L after D.  A step acts as K_o (x) 1_L, so outcome o has
the per-leaf mass sum_i p_i ||K_o psi_i||^2, and its child traced over _L is the
per-leaf mixture sum_i p_i K_o psi_i psi_i^dag K_o^dag / Pr[o] on D; by induction
so is every branch, from <= 2^n or m+1 children per step (without _L, cross
terms psi_i psi_j^dag would enter).

2.c maximizes over pure leaves the trace distance sqrt(1 - |<A,B>|^2 / |A|^2 |B|^2)
of A = M O psi and B = O M psi, psi = phi_k (x) d (x) |0>_P: phi_k a query state
on X (x) Y, d a leaf's D vector, O = sum_x |x><x| (x) O^x_{Y D_x}, M writing e_t(d)
into P.  Split D as (D_x = a, rest = r) and let G = O^x (phi_{k,x} (x) 1_{D_x}).
A's (x, y', a', r) entry is sum_a G[y', a', a] d[a, r] at P = e_t(a', r), B's is
the same sum with each term at P = e_t(a, r), and entries at different P are
orthogonal, so with Q_{x,k}[a', b, a] = sum_y' conj(G[y', a', b]) G[y', a', a]
    <A, B> = sum_{x, a', b, a, r} Q_{x,k}[a', b, a] conj(d[b, r]) d[a, r] 1[e_t(a, r) = e_t(a', r)];
|A|^2 drops the mask and |B|^2 masks the input indices, 1[e_t(a, r) = e_t(b, r)].
Q (cd^3 entries per (x, k)) and the masks depend on no leaf: a report folds them
into weights once, and a preparation's leaves take two products for all t and k.
tests/properties_reference.py applies O_XYD and M_DP outright per (leaf, t, k).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .bounds import Report, timed
from .branching import ReplayChooser, branch, enumerate_paths, replayed
from .linalg import apply_on_axes, density_from_branches, operator_norm, trace_distance
from .oracle import OracleConfig, build_o_small
from .relations import CommitFunction, constant_commit, identity_commit, outcome_array, \
    purified_m_permutation
from .simulator import SimulatorS


def toy_encryption_commit(n: int, m: int) -> CommitFunction:
    """Injective table t = x * 2^n + y: encryption-like, Gamma=1, Gamma'=0."""
    big_n = 2**n
    return CommitFunction(
        n, m, lambda x, y: x * big_n + y, t_values=range(m * big_n),
        gamma=1, gamma_prime=0,
        preimage_fn=lambda x, t: (t - x * big_n,) if 0 <= t - x * big_n < big_n else (),
        name="toy-enc",
    )


def bundled_commits(n: int, m: int) -> list[CommitFunction]:
    return [identity_commit(n, m), toy_encryption_commit(n, m), constant_commit(n, m)]


# small preparation programs: classical-query sequences applied before a test
PREPS = ((), (0,), (1,), (0, 1), (0, 0))


def _preps_for(m: int):
    return tuple(tuple(x for x in prep if x < m) for prep in PREPS)


# -- property 1: perfect RO-simulation ------------------------------------------------


def property_1_report(n: int, m: int) -> Report:
    from .circuits import equivalence_suite, indistinguishability_gap

    suite = [c for c in equivalence_suite() if c["n"] == n and c["m"] == m]
    (gap, ms) = timed(lambda: max(indistinguishability_gap(c) for c in suite))
    return Report(
        "theorem2-1-ro-indistinguishable",
        dict(n=n, M=m, circuits=len(suite)), gap, 0.0, runtime_ms=ms,
    )


# -- property 2.a: independent RO queries commute -------------------------------------


def independent_ro_commutation(n: int, m: int) -> float:
    """max over (x, x') of ||[O^x_{Y D_x}, O^{x'}_{Y' D_{x'}}]||.

    O^x is real orthogonal, so both products are built in real arithmetic.
    """
    big_n, cd = 2**n, 2**n + 1
    o_small = build_o_small(n)
    if np.iscomplexobj(o_small):
        raise TypeError(f"O^x at n={n} is not real ({o_small.dtype})")
    # same register: both act on D_x
    dims = [big_n, big_n, cd]
    dim = int(np.prod(dims))
    eye = np.eye(dim).reshape(dims + [dim])
    o1 = apply_on_axes(o_small, eye, [0, 2]).reshape(dim, dim)
    o2 = apply_on_axes(o_small, eye, [1, 2]).reshape(dim, dim)
    same = operator_norm(o1 @ o2 - o2 @ o1)
    # disjoint registers
    dims = [big_n, big_n, cd, cd]
    dim = int(np.prod(dims))
    eye = np.eye(dim).reshape(dims + [dim])
    o1 = apply_on_axes(o_small, eye, [0, 2]).reshape(dim, dim)
    o2 = apply_on_axes(o_small, eye, [1, 3]).reshape(dim, dim)
    disjoint = operator_norm(o1 @ o2 - o2 @ o1)
    return max(same, disjoint)


def property_2a_report(n: int, m: int) -> Report:
    (val, ms) = timed(lambda: independent_ro_commutation(n, m))
    return Report("theorem2-2a-ro-commute", dict(n=n, M=m), val, 0.0, runtime_ms=ms)


# -- property 2.b: independent extraction queries commute ------------------------------


def independent_e_commutation(f: CommitFunction) -> float:
    """max over (t, t') of ||[M^t_{DP}, M^{t'}_{DP'}]|| via permutation composition.

    Both purified measurements are permutations of the joint basis
    (d, w, w'): M^t_{DP} is the D (x) P permutation with P' carried along,
    and M^{t'}_{DP'} is that permutation for t' conjugated by the swap of P
    and P'.  The commutator vanishes iff the two composed lookups agree
    pointwise.  On disagreement the dense norm is computed outright.
    """
    config = OracleConfig(f.n, f.m)
    p = config.m + 1
    dim = config.d_dim() * p * p
    idx = np.arange(dim)
    w1, w2 = (idx // p) % p, idx % p
    swap = idx + (w2 - w1) * (p - 1)
    on_p = {t: purified_m_permutation(f.relation_for(t), config)[idx // p] * p + w2
            for t in f.t_values}
    worst = 0.0
    for t in f.t_values:
        for tp in f.t_values:
            perm1 = on_p[t]
            perm2 = swap[on_p[tp][swap]]
            comp_a = perm2[perm1]
            comp_b = perm1[perm2]
            if not np.array_equal(comp_a, comp_b):
                mat_a = np.zeros((dim, dim))
                mat_b = np.zeros((dim, dim))
                mat_a[comp_a, idx] = 1.0
                mat_b[comp_b, idx] = 1.0
                worst = max(worst, operator_norm(mat_a - mat_b))
    return worst


def property_2b_report(f: CommitFunction) -> Report:
    (val, ms) = timed(lambda: independent_e_commutation(f))
    return Report(
        "theorem2-2b-e-commute", dict(n=f.n, M=f.m, f=f.name), val, 0.0,
        runtime_ms=ms,
    )


# -- property 2.c: RO and E queries almost commute -------------------------------------


def _prepared(f: CommitFunction, prep, chooser) -> SimulatorS:
    sim = SimulatorS(f, backend="dense", chooser=chooser)
    for x in prep:
        sim.ro_classical(x)
    return sim


def _prep_leaves(f: CommitFunction):
    """The (prob, simulator, ()) leaves of each preparation in _preps_for:
    each tree is walked once per report and branched by every check."""
    return [[(p, sim, ()) for p, sim in enumerate_paths(lambda ch: _prepared(f, prep, ch))]
            for prep in _preps_for(f.m)]


def _xy_states(config: OracleConfig, seed: int = 31):
    rng = np.random.default_rng(seed)
    dim = config.m * config.big_n
    uniform = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    basis = np.zeros(dim, dtype=complex)
    basis[0] = 1.0
    rand = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    rand /= np.linalg.norm(rand)
    return [uniform, basis, rand]


def _per_cell(config: OracleConfig, arr: np.ndarray) -> np.ndarray:
    """arr[..., d] as [..., x, a, r] for every x: D split as (D_x = a, rest = r)."""
    m, cells = config.m, arr.reshape(arr.shape[:-1] + (config.cell_dim,) * config.m)
    return np.stack([np.moveaxis(cells, x - m, -m).reshape(arr.shape[:-1] + (config.cell_dim, -1))
                     for x in range(m)], axis=-3)


def _roe_weights(config: OracleConfig, xy_states, relations) -> tuple[np.ndarray, ...]:
    """The 2.c forms of the module docstring with their masks folded in, as
    weights on conj(d[x, b, r]) d[x, a, r]: rows [k, t] of <A, B> and of |B|^2
    over (x, b, a, r), and rows [k] of |A|^2 over (x, b, a), which has no mask."""
    cd = config.cell_dim
    o4 = build_o_small(config.n).reshape(config.big_n, cd, config.big_n, cd)
    g = np.einsum("pqya,kxy->kxpqa", o4, np.reshape(xy_states, (-1, config.m, config.big_n)))
    forms = np.einsum("kxpqb,kxpqa->kxqba", g.conj(), g)  # Q_{x,k}[a', b, a]
    e = _per_cell(config, np.stack([outcome_array(rel, config) for rel in relations]))
    masks = (e[:, :, :, None] == e[:, :, None]).astype(float)  # [t, x, a', a, r], symmetric
    full = forms.sum(axis=2)
    rows = (len(forms) * len(masks), -1)
    return (np.einsum("kxqba,txqar->ktxbar", forms, masks, optimize=True).reshape(rows),
            (full[:, None, ..., None] * masks).reshape(rows), full.reshape(len(full), -1))


def _roe_distances(config: OracleConfig, weights, d_vecs) -> np.ndarray:
    """Trace distances [leaf, k, t] of M O psi and O M psi for D vectors d_vecs[leaf],
    one product per weight array; ValueError unless every norm is finite and non-zero."""
    w_inner, w_b, w_a = weights
    d = _per_cell(config, np.asarray(d_vecs))
    outer = d.conj()[:, :, :, None] * d[:, :, None]  # [leaf, x, b, a, r]
    flat, shape = outer.reshape(len(d), -1), (len(d), len(w_a), -1)
    norm_a = np.sqrt((outer.sum(-1).reshape(len(d), -1) @ w_a.T).real)[..., None]
    norm_b = np.sqrt((flat @ w_b.T).real).reshape(shape)
    if not all(np.all(np.isfinite(v) & (v > 0.0)) for v in (norm_a, norm_b)):
        raise ValueError(f"pure states need finite non-zero norms, got {norm_a.min()!r} "
                         f"and {norm_b.min()!r}")
    overlap = np.minimum(np.abs(flat @ w_inner.T).reshape(shape) / (norm_a * norm_b), 1.0)
    return np.sqrt(np.maximum(0.0, 1.0 - overlap**2))


def roe_almost_commutation(f: CommitFunction, trees=None) -> float:
    """max trace distance between the two orders of one S.E and one S.RO query over
    every preparation leaf, t and query state: the 2.c form, one batch per preparation."""
    trees = _Trees() if trees is None else trees
    config = OracleConfig(f.n, f.m)
    weights = _roe_weights(config, _xy_states(config), [f.relation_for(t) for t in f.t_values])
    return float(max(
        _roe_distances(config, weights, [sim.backend.d_vector() for _, sim, _ in leaves]).max()
        for leaves in trees.leaves(f)))


def property_2c_report(f: CommitFunction) -> Report:
    return _Trees().report("theorem2-2c-roe-almost-commute", f, roe_almost_commutation,
                           8.0 * np.sqrt(2.0 * f.gamma / 2.0**f.n), gamma=f.gamma)


# -- properties 3.a / 3.b: idempotence ---------------------------------------------------


def _purified(f: CommitFunction, leaves):
    """The root leaf sum_i sqrt(p_i) |psi_i>_D |i>_L of a preparation's leaves."""
    sim = SimulatorS(f, backend="dense", chooser=ReplayChooser(), prefix=[("_L", len(leaves))])
    sim.backend.set_vector(np.stack([np.sqrt(p) * s.backend.d_vector() for p, s, _ in leaves], -1))
    return [(1.0, sim, ())]


class _Trees(Counter):
    """A report's tree counts: prep_leaves walked (3a-4b fold them into roots) and
    split_children of splits."""

    def leaves(self, f: CommitFunction):
        preps = _prep_leaves(f)
        self["prep_leaves"] += sum(map(len, preps))
        return preps

    def roots(self, f: CommitFunction):
        return [_purified(f, leaves) for leaves in self.leaves(f)]

    def branch(self, leaves, split):
        kids = branch(leaves, split)
        self["split_children"] += len(kids)
        return kids

    def then(self, leaves, split_for):
        """Branch each leaf by the split that its last outcome selects."""
        return [kid for leaf in leaves for kid in self.branch([leaf], split_for(leaf[2][-1]))]

    def report(self, experiment, f: CommitFunction, check, bound=0.0, **params) -> Report:
        """check(f, self), timed, as a Report with these counts as its stats."""
        (val, ms) = timed(lambda: check(f, self))
        return Report(experiment, dict(n=f.n, M=f.m, f=f.name, **params), val, bound,
                      runtime_ms=ms, stats=dict(self))


def _density(leaves) -> np.ndarray:
    """Density operator on D of a tree's leaves, tracing out _L."""
    return density_from_branches((p, sim.backend.d_rows()[0]) for p, sim, _ in leaves)


def ro_idempotence(f: CommitFunction, trees=None) -> float:
    trees = _Trees() if trees is None else trees
    worst = 0.0
    for base in trees.roots(f):
        for x in range(f.m):
            split = lambda sim: sim.ro_branches(x)
            once = trees.branch(base, split)
            worst = max(worst, trace_distance(_density(once), _density(trees.branch(once, split))))
    return worst


def e_idempotence(f: CommitFunction, trees=None) -> tuple[float, float]:
    """(max trace distance, max repeat-outcome disagreement probability)."""
    trees = _Trees() if trees is None else trees
    worst_td = worst_outcome = 0.0
    for base in trees.roots(f):
        for t in f.t_values:
            split = replayed(lambda sim: sim.e_query(t).value)
            once = trees.branch(base, split)
            twice = trees.branch(once, split)
            worst_td = max(worst_td, trace_distance(_density(once), _density(twice)))
            worst_outcome = max(worst_outcome, sum(p for p, _, (a, b) in twice if a != b))
    return worst_td, worst_outcome


def property_3a_report(f: CommitFunction) -> Report:
    return _Trees().report("theorem2-3a-ro-idempotent", f, ro_idempotence)


def property_3b_report(f: CommitFunction) -> Report:
    trees = _Trees()
    ((td, outcome), ms) = timed(lambda: e_idempotence(f, trees))
    return Report("theorem2-3b-e-idempotent",
                  dict(n=f.n, M=f.m, f=f.name, outcome_disagreement=outcome),
                  max(td, outcome), 0.0, runtime_ms=ms, stats=dict(trees))


# -- properties 4.a / 4.b: classical consistency -----------------------------------------


def prop_4a_worst(f: CommitFunction, trees=None) -> float:
    """max over preps and t of Pr[f(x_hat, h_hat) != t and x_hat != empty]."""
    trees = _Trees() if trees is None else trees
    worst = 0.0
    for base in trees.roots(f):
        for t in f.t_values:
            found = [leaf for leaf in trees.branch(base, replayed(lambda sim: sim.e_query(t).value))
                     if leaf[2][-1] is not None]
            checked = trees.then(found, lambda x_hat: lambda sim: sim.ro_branches(x_hat))
            worst = max(worst, sum(p for p, _, (x_hat, h_hat) in checked if f(x_hat, h_hat) != t))
    return worst


def prop_4b_worst(f: CommitFunction, trees=None) -> float:
    """max over preps (no prior extraction) and x of Pr[S.E(f(x, h)) = empty]."""
    trees = _Trees() if trees is None else trees
    worst = 0.0
    for base in trees.roots(f):
        for x in range(f.m):
            queried = trees.branch(base, lambda sim: sim.ro_branches(x))
            checked = trees.then(
                queried, lambda h: replayed(lambda sim: sim.e_query(f(x, h)).is_empty))
            worst = max(worst, sum(p for p, _, (_, empty) in checked if empty))
    return worst


def property_4a_report(f: CommitFunction) -> Report:
    return _Trees().report("theorem2-4a-extract-then-ro", f, prop_4a_worst,
                           2.0 * f.gamma / 2.0**f.n, gamma=f.gamma)


def property_4b_report(f: CommitFunction) -> Report:
    return _Trees().report("theorem2-4b-ro-then-extract", f, prop_4b_worst, 2.0 / 2.0**f.n)


# -- the suite -----------------------------------------------------------------------------


def theorem2_property_suite(ns=(1, 2), ms=(2, 3)) -> list[Report]:
    """One report per property per grid point (property 1/2.a per oracle shape)."""
    reports: list[Report] = []
    for n in ns:
        for m in ms:
            reports.append(property_1_report(n, m))
            reports.append(property_2a_report(n, m))
            for f in bundled_commits(n, m):
                reports.append(property_2b_report(f))
                reports.append(property_2c_report(f))
                reports.append(property_3a_report(f))
                reports.append(property_3b_report(f))
                reports.append(property_4a_report(f))
                reports.append(property_4b_report(f))
    return reports
