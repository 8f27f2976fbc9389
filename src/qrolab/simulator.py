"""The extractable RO-simulator: interfaces S.RO and S.E over a pluggable backend.

Backends:
  dense    - exact joint state over all database registers (small n, m)
  sparse   - associative-map compressed representation (huge m, few queries)
  product  - per-register columns; classical queries and extraction only

Extraction queries are classical: S.E measures and returns an outcome.
"""

from __future__ import annotations

import numpy as np

from .branching import RandomChooser
from .oracle import DenseOracleState, OracleConfig, oracle_state
from .relations import (
    CommitFunction,
    ExtractionOutcome,
    measure_extraction_dense,
)


class SimulatorS:
    def __init__(self, commit: CommitFunction, backend: str = "dense", *,
                 seed=None, chooser=None, q_cap: int = 64, prefix=()):
        self.commit = commit
        self.config = OracleConfig(commit.n, commit.m)
        if chooser is None:
            chooser = RandomChooser(np.random.default_rng(seed))
        self.chooser = chooser
        self.log: list[dict] = []
        self.backend = oracle_state(backend, commit.n, commit.m, prefix, q_cap)

    def fork(self, chooser) -> "SimulatorS":
        """An independent copy bound to chooser: its own backend and log."""
        return self._child(self.backend.copy(), chooser)

    def _child(self, backend, chooser) -> "SimulatorS":
        out = type(self).__new__(type(self))
        out.__dict__.update(self.__dict__)
        out.chooser = chooser
        out.backend = backend
        out.log = list(self.log)
        return out

    # -- S.RO --------------------------------------------------------------------

    def ro_classical(self, x: int) -> int:
        h = self.backend.classical_query(x, self.chooser)
        self.log.append(dict(interface="RO", mode="classical", x=int(x), h=int(h)))
        return h

    def ro_branches(self, x: int) -> list[tuple[float, "SimulatorS", int]]:
        """The split of one classical S.RO query at x (dense backend):
        (probability, child, h) per response h, each child this simulator after
        the query with its own backend and log.  O^x is applied once for all
        responses; this simulator is left as it was.  A child has no chooser;
        its log entry is the one a replayed query writes."""
        kids = []
        for q, backend, h in self.backend.classical_query_branches(x):
            child = self._child(backend, None)
            child.log.append(dict(interface="RO", mode="classical", x=int(x), h=int(h)))
            kids.append((q, child, h))
        return kids

    def ro_quantum(self, x_label: str = "X", y_label: str = "Y") -> None:
        """Apply O_XYD on the prefix query registers (dense/sparse only)."""
        self.backend.quantum_query(x_label, y_label)
        self.log.append(dict(interface="RO", mode="quantum", x=x_label, y=y_label))

    # -- S.E ----------------------------------------------------------------------

    def e_query(self, t) -> ExtractionOutcome:
        if t not in self.commit.t_values:
            raise ValueError(f"t={t!r} not in T")
        if isinstance(self.backend, DenseOracleState):
            rel = self.commit.relation_for(t)
            out = measure_extraction_dense(self.backend, rel, self.chooser)
        else:
            pick = self.backend.measure_relation(
                lambda x: self.commit.preimages(x, t), self.chooser)
            out = ExtractionOutcome(pick, self.config.m)
        self.log.append(dict(interface="E", mode="classical", t=t,
                             outcome=None if out.is_empty else int(out.value)))
        return out
