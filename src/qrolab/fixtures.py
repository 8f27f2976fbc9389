"""Bundled fixtures and the JSON file formats for external descriptions.

File formats (one JSON object per file, discriminated by "type"):

  relation: {"type": "relation", "n", "m", "pairs": [[x, y], ...]}
  commit:   {"type": "commit", "n", "m", "table": [[t, ...], ...]}   # table[x][y]
  sigma:    {"type": "sigma", "ell", "challenges": [[i, ...], ...],
             "randomness_bits", "slot_space", "verifier": name, ...}
  pke:      {"type": "pke", "num_messages", "randomness_bits", "num_keys",
             "ct_space", "tables": [[[c, ...], ...], ...]}
  circuit:  {"type": "circuit", ...circuit dict...}
"""

from __future__ import annotations

import json
from importlib import resources

from .fokem import PKESpec
from .relations import CommitFunction, Relation
from .sigma import SigmaSpec, xor_shares_verifier


def _data_dir():
    return resources.files("qrolab") / "fixtures" / "data"


def fixture_names() -> list[str]:
    base = _data_dir()
    if not base.is_dir():
        return []
    return sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))


def load_raw(name: str) -> dict:
    path = _data_dir() / f"{name}.json"
    if not path.is_file():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return json.loads(path.read_text())


def parse_fixture(raw: dict):
    kind = raw.get("type")
    if kind == "relation":
        return Relation.from_pairs(raw["n"], raw["m"],
                                   [(x, y) for x, y in raw["pairs"]])
    if kind == "commit":
        return CommitFunction.from_table(raw["table"], name=raw.get("name", "table"))
    if kind == "sigma":
        verifier = _named_verifier(raw)
        return SigmaSpec(
            ell=raw["ell"],
            challenges=tuple(frozenset(c) for c in raw["challenges"]),
            randomness_bits=raw["randomness_bits"],
            slot_space=raw["slot_space"],
            verifier=verifier,
            name=raw.get("name", "sigma"),
        )
    if kind == "pke":
        return PKESpec(raw["num_messages"], raw["randomness_bits"],
                       raw["num_keys"], raw.get("name", "pke"),
                       raw["tables"], raw.get("ct_space", 0))
    if kind == "circuit":
        circ = dict(raw)
        circ.pop("type")
        return circ
    raise ValueError(f"unknown fixture type {kind!r}")


def _named_verifier(raw: dict):
    name = raw.get("verifier", "always")
    if name == "xor-shares":
        return xor_shares_verifier(raw["share_bits"])
    if name == "always":
        return lambda instance, challenge, openings: True
    if name == "never":
        return lambda instance, challenge, openings: False
    raise ValueError(f"unknown verifier builtin {name!r}")


def load(name: str):
    return parse_fixture(load_raw(name))


def list_fixtures(kind: str | None = None) -> list[tuple[str, str]]:
    """(name, type) pairs of every bundled fixture, optionally filtered."""
    out = []
    for name in fixture_names():
        t = load_raw(name).get("type", "?")
        if kind is None or t == kind:
            out.append((name, t))
    return out
