"""The verification harness: every commutator/query bound computed exactly.

The purified measurement M_DP maps |db, w> to |db, w + e(db)> on D (x) P,
with P = Z/(m+1) and e(db) the encoded outcome (0 for empty, x + 1 for x).
O_XYD is block diagonal over X with Hermitian involution blocks O^x on
(Y, D_x), real in the computational basis.  Norms of commutators are
therefore computed per x on Y (x) D (x) P.

Below the SVD cutoff the norm comes from the Fourier basis of P.  Write
omega = e^{2 pi i/(m+1)} and |j~> = (m+1)^{-1/2} sum_w omega^{-jw} |w>.  Then
M_DP |y, db, j~> = omega^{j e(db)} |y, db, j~>, so M_DP = (+)_j Lambda_j with
Lambda_j = diag_{(y, db)} omega^{j e(db)} on Y (x) D, while O^x (x) 1_P
commutes with the change of basis of P.  Hence [O^x, M_DP] = (+)_j K_j with
K_j = [O, Lambda_j], that is K_j[a, b] = O[a, b] (lambda_j[b] - lambda_j[a])
for the real matrix O = O^x (x) 1 on Y (x) D, and
||[O^x, M_DP]|| = max_j ||K_j||.  K_0 = 0, and K_{m+1-j} = conj(K_j) because O
is real, so only j = 1 .. floor((m+1)/2) are needed.

Each K_j splits further over the spectator cells.  Write r = (d_x')_{x'!=x}.
O = O^x (x) 1_r acts on (Y, D_x) only, and Lambda_j is diagonal, so neither
changes r: up to the order of the cells K_j = (+)_r K_{j,r} with
K_{j,r}[(y, c), (y', c')] = O^x[(y, c), (y', c')] (lambda_{j,r}(c') -
lambda_{j,r}(c)) on Y (x) D_x, where lambda_{j,r}(c) = omega^{j e(c, r)} does
not depend on y.  Hence ||[O^x, M_DP]|| = max_{j, r} ||K_{j,r}||, and K_{j,r}
depends on r only through the row e(., r), so the distinct rows suffice:
one batched SVD over matrices of side 2^n (2^n + 1) replaces the SVD on
Y (x) D (x) P.  Above the cutoff the norm is matrix-free (Lanczos on K^dag K
over the whole space).

Every norm of a commutator with a diagonal matrix is one Hadamard product.
For D = diag d, (A D)[a, b] = A[a, b] d[b] and (D A)[a, b] = d[a] A[a, b], so
[A, D] = A o (d[col] - d[row]), with d[col][a, b] = d[b] and d[row][a, b] =
d[a]; `diagonal_commutator_norms` takes one stacked SVD of such products.
K_{j,r} above is the case A = O^x, d = lambda_{j,r}, and the lemma norms are
two more.  Pi^x is diag of the relation's mask row x, padded with a 0 for bot
(bot is in no relation), so ||[F, Pi^x]|| takes d = that padded row.  Y is the
major index of Y (x) D_x, so 1_Y (x) Pi^x is diag of the padded row tiled 2^n
times, and ||[O^x, 1_Y (x) Pi^x]|| takes d = the tiled row.

Pi^empty = (x)_x' (1 - Pi^x') and O^x acts on (Y, D_x) only, so up to the order
of the cells [O^x, 1_Y (x) Pi^empty] = [O^x, 1_Y (x) (1 - Pi^x)] (x) (x)_{x'!=x}
(1 - Pi^x').  The identity commutes with everything, so [A, 1 - Pi] = -[A, Pi],
and each ||1 - Pi^x'|| is exactly 1: 1 - Pi^x' is a diagonal 0/1 projector
that keeps |bot>.  Hence ||[O^x, 1_Y (x) Pi^empty]|| = ||[O^x, 1_Y (x) Pi^x]||,
and the Pi^empty row is that norm, not another SVD.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .branching import distribution, enumerate_paths
from .config import ATOL, DENSE_SVD_CUTOFF
from .linalg import apply_on_axes, operator_norm, spectral_norm_linop
from .oracle import OracleConfig, build_f, build_o_small
from .relations import CommitFunction, Relation, encoded_outcomes, purified_m_permutation, \
    require_same_shape


@dataclass
class Report:
    """One checked inequality: `measured` against `bound`, and its verdict.

    `satisfied` defaults to measured <= bound + ATOL.  Experiments whose
    check is another predicate (an exact identity, a lower bound, a
    Monte-Carlo band) supply their own verdict, which must be a bool.
    `vacuous` flags a bound that cannot constrain anything, such as a
    probability bound at or above 1.  `stats` holds further numbers the
    experiment computed on the way.
    """

    experiment: str
    params: dict
    measured: float
    bound: float
    satisfied: bool | None = None
    vacuous: bool = False
    note: str = ""
    runtime_ms: float = 0.0
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.satisfied is None:
            self.satisfied = self.measured <= self.bound + ATOL
        if not isinstance(self.satisfied, (bool, np.bool_)):
            raise TypeError(f"{self.experiment}: verdict {self.satisfied!r} is not a bool")
        self.satisfied = bool(self.satisfied)
        self.vacuous = bool(self.vacuous)

    def row(self) -> dict:
        """The results.jsonl row: the CSV columns, with every other param,
        the stats and the vacuous flag under `detail`."""
        row = {"experiment": self.experiment,
               **{k: self.params.get(k, "") for k in ("n", "M", "gamma", "q")},
               "measured": float(self.measured), "bound": float(self.bound),
               "satisfied": self.satisfied}
        extra = {**self.params, **self.stats, "vacuous": self.vacuous}
        row["detail"] = {k: v for k, v in extra.items() if k not in row}
        if self.note:
            row["note"] = self.note
        return row


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, (time.perf_counter() - start) * 1000.0


def _commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    return operator_norm(a @ b - b @ a)


def diagonal_commutator_norms(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """||[A, diag d]|| = ||A o (d[col] - d[row])|| (module docstring) for each
    vector of the stack d, in one stacked operator_norm."""
    return operator_norm(a * (d[..., None, :] - d[..., :, None]))


# -- commutator norms ---------------------------------------------------------------


class OxMCommutator:
    """[O^x_{Y D_x}, M_DP] on Y (x) D (x) P, applied to a (dim,) or (dim, batch) array."""

    def __init__(self, rel: Relation, config: OracleConfig, x: int):
        self.rel = rel
        self.config = config
        self.x = x
        self.o_small = build_o_small(config.n)
        self.dims = [config.big_n] + [config.cell_dim] * config.m + [config.m + 1]
        self.dim = int(np.prod(self.dims))

    @cached_property
    def dest(self) -> np.ndarray:
        """M_DP's permutation, which only the matrix-free apply reads."""
        return purified_m_permutation(self.rel, self.config)

    def _apply_o(self, flat: np.ndarray) -> np.ndarray:
        t = flat.reshape(self.dims + list(flat.shape[1:]))
        return apply_on_axes(self.o_small, t, [0, 1 + self.x]).reshape(flat.shape)

    def _apply_m(self, flat: np.ndarray) -> np.ndarray:
        rows = flat.reshape((self.config.big_n, -1) + flat.shape[1:])
        out = np.empty_like(rows)
        out[:, self.dest] = rows
        return out.reshape(flat.shape)

    def _apply_m_dag(self, flat: np.ndarray) -> np.ndarray:
        rows = flat.reshape((self.config.big_n, -1) + flat.shape[1:])
        return rows[:, self.dest].reshape(flat.shape)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._apply_o(self._apply_m(v)) - self._apply_m(self._apply_o(v))

    def apply_adj(self, v: np.ndarray) -> np.ndarray:
        # K^dag = M^dag O - O M^dag since O^x is Hermitian
        return self._apply_m_dag(self._apply_o(v)) - self._apply_o(self._apply_m_dag(v))

    def norm(self) -> float:
        """The blocks at dim <= DENSE_SVD_CUTOFF, else Lanczos on `apply` in real
        arithmetic: O^x is real orthogonal and M_DP a permutation."""
        if self.dim <= DENSE_SVD_CUTOFF:
            return self.block_norm()
        return spectral_norm_linop(self.apply, self.apply_adj, self.dim)

    def block_norm(self) -> float:
        """max ||K_{j,r}|| over j = 1 .. floor((m+1)/2) and the distinct rows
        e(., r) of the spectator cells r (module docstring), from one batched
        SVD on Y (x) D_x."""
        config = self.config
        cd = config.cell_dim
        enc = encoded_outcomes(self.rel, config).reshape([cd] * config.m)
        flat = np.moveaxis(enc, self.x, -1).reshape(-1, cd).tolist()
        rows = np.array(sorted(set(map(tuple, flat))))
        p = config.m + 1
        js = np.arange(1, p // 2 + 1)[:, None, None]
        lam = np.exp(2j * np.pi / p * js * np.tile(rows, config.big_n))
        return float(diagonal_commutator_norms(self.o_small, lam).max())


def theorem_commutator_norm(rel: Relation, config: OracleConfig) -> float:
    """||[O_XYD, M_DP]|| = max_x ||[O^x, M_DP]|| (block diagonal over X)."""
    return max(OxMCommutator(rel, config, x).norm() for x in range(config.m))


def full_commutator_norm_direct(rel: Relation, config: OracleConfig) -> float:
    """Direct dense [O_XYD, M_DP] on X (x) Y (x) D (x) P; tiny configs only.

    Independent of OxMCommutator: block x of O_XYD is np.kron(O^x, 1) on
    (Y, D_x, rest), moved into Y (x) D order by one index permutation.
    """
    config.require_dense()
    dims = [config.big_n] + [config.cell_dim] * config.m
    block_dim = int(np.prod(dims))
    o = np.zeros((config.m * block_dim,) * 2, dtype=complex)
    for x in range(config.m):
        order = [0, 1 + x] + [a for a in range(1, len(dims)) if a != 1 + x]
        idx = np.arange(block_dim).reshape(dims).transpose(order).reshape(-1)
        sl = slice(x * block_dim, (x + 1) * block_dim)
        o[sl, sl][np.ix_(idx, idx)] = np.kron(
            build_o_small(config.n), np.eye(block_dim // (config.big_n * config.cell_dim)))
    dest = purified_m_permutation(rel, config)
    m_perm = np.zeros((len(dest), len(dest)), dtype=complex)
    m_perm[dest, np.arange(len(dest))] = 1.0
    p_dim = config.m + 1
    o_full = np.kron(o, np.eye(p_dim))
    m_full = np.kron(np.eye(config.m * config.big_n), m_perm)
    return _commutator_norm(o_full, m_full)


def local_bound(n: int, gamma_x: int) -> float:
    return 2.0 ** (-n / 2) * np.sqrt(2 * gamma_x)


def theorem_bound(n: int, gamma: int) -> float:
    return 8.0 * 2.0 ** (-n / 2) * np.sqrt(2 * gamma)


def _local_norms(rel: Relation) -> tuple:
    """||[F, Pi^x]|| and ||[O^x, 1_Y (x) Pi^x]|| for every x, one stacked SVD
    each, from the relation's mask (module docstring)."""
    cells = np.zeros((rel.m, 2**rel.n + 1))  # the last cell, bot, is in no relation
    cells[:, :-1] = rel.mask
    f_pi = diagonal_commutator_norms(build_f(rel.n), cells)
    o_pi = diagonal_commutator_norms(build_o_small(rel.n), np.tile(cells, 2**rel.n))
    return f_pi, o_pi


def verify_local_bounds(n: int, rel: Relation) -> list[Report]:
    """Lemma-level bounds [F, Pi^x], [O^x, Pi^x], [O^x, Pi^empty] per x.

    The Pi^empty row is ||[O^x, 1_Y (x) Pi^x]||, equal to ||[O^x, 1_Y (x)
    Pi^empty]|| by the module docstring.  The norms come from two stacked
    SVDs, so every local row carries the wall time of that one computation as
    its runtime_ms: the rows of one relation share it, and it is not to be
    summed over them.
    """
    require_same_shape(rel, OracleConfig(n, rel.m))
    (f_pi, o_pi), ms = timed(lambda: _local_norms(rel))
    reports = []
    for x in range(rel.m):
        gx = rel.gamma_x(x)
        base = dict(n=n, M=rel.m, x=x, gamma=gx)
        bound = local_bound(n, gx)
        reports.append(Report("local-F-Pi", base, float(f_pi[x]), bound, runtime_ms=ms))
        reports.append(Report("local-O-Pi", base, float(o_pi[x]), 2 * bound, runtime_ms=ms))
        reports.append(Report("local-O-PiEmpty", base, float(o_pi[x]), 2 * bound,
                              runtime_ms=ms))
    return reports


def relation_chain_monotonicity(n: int, m: int, chain: list[Relation]) -> Report:
    """Empirical probe: is the commutator norm monotone under enlargement?

    Flagged in the note, never asserted: monotonicity is not a theorem.
    """
    config = OracleConfig(n, m)
    values, ms = timed(lambda: [theorem_commutator_norm(rel, config) for rel in chain])
    monotone = all(values[i] <= values[i + 1] + ATOL for i in range(len(values) - 1))
    return Report(
        "monotonicity-probe", dict(n=n, M=m, values=[float(v) for v in values]),
        0.0, 0.0, runtime_ms=ms,
        note="monotone" if monotone else "NOT monotone (informational only)",
    )


# -- query experiments ---------------------------------------------------------------


def grover_experiment(circ: dict, rel: Relation, backend: str = "sparse") -> Report:
    """Exact Pr[(x, RO(x)) in R] for a circuit that outputs register X.

    The circuit defers every measurement to the end, so the state is evolved
    once; only the measurement of X branches, on copies of that state.
    """
    from .circuits import _run, circuit_registers, validate_circuit
    from .oracle import oracle_state

    mats = validate_circuit(circ)
    if any(s["op"] == "measure" for s in circ["steps"]):
        raise ValueError("grover circuits must defer measurement to the end")
    config = OracleConfig(circ["n"], circ["m"])
    q = sum(1 for s in circ["steps"] if s["op"] == "query")

    def success_probability():
        state = oracle_state(backend, config.n, config.m, circuit_registers(circ),
                             q_cap=q + 2)
        # evolve once through the steps alone: X is measured per branch below
        _run({"steps": circ["steps"]}, mats, state,
             lambda: state.quantum_query("X", "Y"), None)

        def run(ch):
            st = state.copy()
            (x,) = st.measure(["X"], ch)
            # exact hit probability of the final classical RO(x) check, without
            # branching over responses
            probs = st.classical_query_probs(x)
            return float(sum(probs[y] for y in rel.y_set(x)))

        return sum(p * hit_prob for p, hit_prob in enumerate_paths(run))

    success, ms = timed(success_probability)
    bound = 152.0 * (q + 1) ** 2 * rel.gamma / 2.0**config.n
    return Report(
        "grover", dict(n=config.n, M=config.m, q=q, gamma=rel.gamma,
                       circuit=circ.get("name", "?")),
        float(success), bound, vacuous=bound >= 1.0, runtime_ms=ms,
    )


def collision_mask(config: OracleConfig, f: CommitFunction) -> np.ndarray:
    """For every database basis index, whether two registers x != x' hold
    cells c, c' with f(x, c) = f(x', c').

    Each (x, cell) gets the code of its t value; bot gets a code of its own
    per x, so it never collides.  A database collides when its m codes are
    not all distinct.
    """
    codes: dict = {}
    table = np.array([[codes.setdefault(f(x, c), len(codes)) for c in range(config.big_n)]
                      + [-1 - x] for x in range(config.m)])
    cells = np.indices([config.cell_dim] * config.m).reshape(config.m, -1)
    held = np.sort(table[np.arange(config.m)[:, None], cells], axis=0)
    return (held[1:] == held[:-1]).any(axis=0)


def collision_mass(sim_state, f: CommitFunction) -> float:
    """tr(Pi^col rho) on a dense oracle state: mass on cross-register collisions."""
    rows, _ = sim_state.d_rows()
    mass = np.sum(np.abs(rows) ** 2, axis=1)
    return float(mass[collision_mask(sim_state.config, f)].sum())


def collision_experiment(adversary, f: CommitFunction, q: int) -> Report:
    """Cross-register collision mass of the final database vs the cubic bound."""
    from .oracle import DenseOracleState

    config = OracleConfig(f.n, f.m)

    def run(ch):
        oracle = DenseOracleState(config)
        queries = 0

        def ro(x):
            nonlocal queries
            queries += 1
            return oracle.classical_query(x, ch)

        adversary(ro)
        if queries > q:
            raise ValueError(f"adversary exceeded query budget: {queries} > {q}")
        return collision_mass(oracle, f)

    mass, ms = timed(lambda: sum(p * v for p, v in enumerate_paths(run)))
    bound = 40.0 * np.e**2 * q**2 * (q + 1) * f.gamma_prime / 2.0**f.n
    return Report(
        "collision", dict(n=f.n, M=f.m, q=q, gamma_prime=f.gamma_prime, f=f.name),
        float(mass), float(bound), vacuous=bound >= 1.0, runtime_ms=ms,
    )


class RoOnly:
    """Restricted simulator facade handed to soundness-experiment adversaries."""

    def __init__(self, sim):
        self._sim = sim
        self.queries = 0

    def ro(self, x: int) -> int:
        self.queries += 1
        return self._sim.ro_classical(x)

    def e_query(self, *_a, **_k):
        raise PermissionError("the proposition forbids extraction queries here")


def interface_soundness_experiment(mode: str, adversary, f: CommitFunction,
                                   r_prime=None, in_run_ro: bool = False) -> Report:
    """Hard-property / hard-collision propositions, exactly enumerated.

    hard-property: adversary (S.RO only) emits t in T^ell; success if some
    extraction (x_i, t_i) lands in R'.  hard-collision: adversary emits t, x
    vectors; h_i from S.RO(x_i), hat
    x_i from S.E(t_i); success if some i has hat x_i != x_i yet f(x_i,h_i)=t_i.
    The tree is walked once from a dense SimulatorS root: the walk's node
    answers S.RO and S.E, so each is evolved once per distinct (state, step)
    of the walk.
    """
    from .simulator import SimulatorS

    if mode not in ("hard-property", "hard-collision"):
        raise ValueError(f"unknown mode {mode!r}")

    def run(sim):
        facade = RoOnly(sim)
        out = adversary(facade)
        q = facade.queries
        if mode == "hard-property":
            ts = out if isinstance(out, (list, tuple)) else [out]
            hits = []
            for t in ts:
                x_hat = sim.e_query(t)
                hits.append((x_hat.value, t))
            success = any(
                x is not None and r_prime(x, t) for x, t in hits
            )
            return (q, len(ts), success)
        ts, xs = out
        hs = [sim.ro_classical(x) for x in xs]
        xh = [sim.e_query(t).value for t in ts]
        success = any(
            xh[i] != xs[i] and f(xs[i], hs[i]) == ts[i] for i in range(len(ts))
        )
        return (q, len(ts), success)

    paths, ms = timed(lambda: enumerate_paths(run, SimulatorS(f, backend="dense")))
    success = sum(p for p, (_, _, hit) in paths if hit)
    q = max(qq for _, (qq, _, _) in paths)
    ell_seen = max(l for _, (_, l, _) in paths)
    if mode == "hard-property":
        rel = Relation(f.n, f.m, lambda x, y: bool(r_prime(x, f(x, y))))
        bound = 128.0 * q**2 * rel.gamma / 2.0**f.n
        params = dict(n=f.n, M=f.m, q=q, ell=ell_seen, gamma=rel.gamma, f=f.name)
    else:
        # in-run RO queries drop the ell term (remark after the proposition)
        eff = q + 1 if in_run_ro else q + ell_seen + 1
        bound = (40.0 * np.e**2 * eff**3 * f.gamma_prime + 2.0) / 2.0**f.n
        params = dict(n=f.n, M=f.m, q=q, ell=ell_seen,
                      gamma_prime=f.gamma_prime, f=f.name, in_run_ro=in_run_ro)
    return Report(f"interface-{mode}", params, float(success), float(bound),
                  vacuous=bound >= 1.0, runtime_ms=ms)


def early_extraction_experiment(adversary, f: CommitFunction,
                                multi: bool = False) -> tuple[Report, Report]:
    """Early extraction vs the real oracle, on classical multi-round adversaries.

    The adversary object exposes run(ro, announce): it may query ro freely,
    must call announce(t) when emitting a commitment, and returns (xs, w)
    with None entries for refused openings (RO(None) = None and the mismatch
    event never fires on them).  Outputs are classical, so the joint
    [t, x, h, W] states are diagonal and the trace distance is the total
    variation of the outcome tuples.  q, q2 and ell are each the largest
    count over the real game's leaves.  The real side is coins only (the
    lazy oracle draws fresh values as coins); the simulated side walks its
    tree once from a dense SimulatorS root, whose node answers S.RO and S.E.
    """
    from .linalg import total_variation
    from .oracle import LazyRandomOracle
    from .simulator import SimulatorS

    def run_real(ch):
        ro = LazyRandomOracle(f.n, ch)
        ts: list = []
        queries = [0, 0]

        def query(x):
            queries[0] += 1
            if ts:
                queries[1] += 1
            return ro.query(x)

        xs, w = adversary.run(query, ts.append)
        hs = tuple(None if x is None else ro.query(x) for x in xs)
        return (tuple(ts), tuple(xs), hs, w), (*queries, len(ts))

    def run_sim(sim):
        ts: list = []
        hats: list = []

        def announce(t):
            ts.append(t)
            hats.append(sim.e_query(t).value)

        xs, w = adversary.run(sim.ro_classical, announce)
        hs = tuple(None if x is None else sim.ro_classical(x) for x in xs)
        mismatch = any(
            x is not None and hat != x and f(x, h) == t
            for x, hat, h, t in zip(xs, hats, hs, ts)
        )
        return (tuple(ts), tuple(xs), hs, w), mismatch

    real_paths, ms_real = timed(lambda: enumerate_paths(run_real))
    sim_paths, ms_sim = timed(lambda: enumerate_paths(run_sim, SimulatorS(f, backend="dense")))
    real = distribution((p, out) for p, (out, _) in real_paths)
    sim_dist = distribution((p, out) for p, (out, _) in sim_paths)
    mismatch_prob = sum(p for p, (_, bad) in sim_paths if bad)

    q, q2, ell = (max(counts) for counts in zip(*(c for _, (_, c) in real_paths)))
    root = np.sqrt(2.0 * f.gamma / 2.0**f.n)
    if multi:
        td_bound = 8.0 * ell * (q + ell) * root
        mm_bound = (8.0 * ell * (q + 1) * root
                    + (40.0 * np.e**2 * (q + ell + 1) ** 3 * f.gamma_prime + 2.0)
                    / 2.0**f.n)
    else:
        td_bound = 8.0 * (q2 + 1) * root
        mm_bound = (8.0 * (q2 + 1) * root
                    + (40.0 * np.e**2 * (q + 2) ** 3 * f.gamma_prime + 2.0)
                    / 2.0**f.n)
    params = dict(n=f.n, M=f.m, q=q, q2=q2, ell=ell, f=f.name,
                  gamma=f.gamma, gamma_prime=f.gamma_prime, multi=multi)
    td = total_variation(real, sim_dist)
    return (
        # the trace distance needs both enumerations, the mismatch only the simulated one
        Report("early-trace-distance", params, td, float(td_bound),
               vacuous=td_bound >= 1.0, runtime_ms=ms_real + ms_sim),
        Report("early-mismatch", params, float(mismatch_prob), float(mm_bound),
               vacuous=mm_bound >= 1.0, runtime_ms=ms_sim),
    )
