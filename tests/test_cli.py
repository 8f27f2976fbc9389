"""CLI tests: subcommands, exit codes, output determinism, fixtures."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qrolab
from qrolab import experiments
from qrolab.cli import main
from qrolab.fixtures import list_fixtures, load, parse_fixture


def run_cli(args):
    return main(list(args))


# The settings each battery's runner reads, besides --config and --out.
READS = {
    "verify-commutator": {"seed", "relations"},
    "verify-theorem2": set(),
    "grover": set(),
    "collision": set(),
    "interfaces": set(),
    "sigma": {"seed", "trials"},
    "fo": {"seed", "trials"},
    "equivalence": {"backend"},
    "sweep": {"seed"},
}
FLAG_VALUES = {"seed": "1", "relations": "2", "trials": "5", "backend": "sparse",
               "bound-scale": "1e-6"}
UNREAD_FLAGS = [(battery, flag) for battery in READS for flag in FLAG_VALUES
                if flag not in READS[battery]]
# values below a setting's least value: each once crashed or ran nothing
BAD_COUNTS = [("sigma", "trials", 0), ("fo", "trials", 0), ("sigma", "trials", -3),
              ("verify-commutator", "relations", -2), ("sweep", "seed", -1)]


class TestFixtures:
    def test_at_least_ten_bundled(self):
        assert len(list_fixtures()) >= 10

    def test_kind_filter_narrows(self):
        all_rows = list_fixtures()
        rel_rows = list_fixtures(kind="relation")
        assert 0 < len(rel_rows) < len(all_rows)
        assert all(t == "relation" for _, t in rel_rows)

    def test_every_fixture_parses(self):
        for name, _ in list_fixtures():
            load(name)

    def test_unknown_fixture_type_rejected(self):
        with pytest.raises(ValueError):
            parse_fixture({"type": "martian"})


class TestCommands:
    def test_collision_runs_clean(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["collision", "--out", str(out)]) == 0
        lines = (out / "results.jsonl").read_text().splitlines()
        assert len(lines) == 3
        rows = [json.loads(l) for l in lines]
        assert all(r["satisfied"] for r in rows)
        csv_text = (out / "summary.csv").read_text()
        assert csv_text.splitlines()[0] == \
            "experiment,n,M,gamma,q,measured,bound,satisfied,runtime_ms"
        meta = json.loads((out / "metadata.json").read_text())
        assert "elapsed_s" in meta and len(meta["runtimes_ms"]) == 3
        assert "seed" not in meta  # collision reads no setting

    def test_list_fixtures_command(self, capsys):
        assert run_cli(["list-fixtures"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 10
        assert run_cli(["list-fixtures", "--kind", "pke"]) == 0
        pke_lines = capsys.readouterr().out.strip().splitlines()
        assert all(l.startswith("pke") for l in pke_lines)

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["interfaces", "--out", str(out)]) == 0
        assert (out1 / "results.jsonl").read_bytes() == \
            (out2 / "results.jsonl").read_bytes()

    @pytest.mark.parametrize("args,hash_seeds", [
        (["fo", "--trials", "50", "--seed", "0"], ("1", "2")),
        (["verify-commutator", "--relations", "4", "--seed", "0"], ("0", "0")),
        (["verify-commutator", "--relations", "200", "--seed", "0"], ("1", "2")),
        (["verify-theorem2"], ("1", "2")),
        (["equivalence"], ("1", "2")),
        (["equivalence", "--backend", "sparse"], ("1", "2")),
        (["sigma", "--trials", "200", "--seed", "0"], ("1", "2")),
    ], ids=["fo", "verify-commutator", "verify-commutator-200", "verify-theorem2", "equivalence",
            "equivalence-sparse", "sigma"])
    def test_fresh_processes_write_identical_results(self, tmp_path, args, hash_seeds):
        # total_variation once followed the set's hash order, and Lanczos
        # its own unseeded start vector, then ARPACK's last bits: each changed
        # between processes
        src = str(Path(qrolab.__file__).parents[1])
        outs = []
        for i, hash_seed in enumerate(hash_seeds):
            out = tmp_path / str(i)
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run(
                [sys.executable, "-m", "qrolab.cli", *args, "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append((out / "results.jsonl").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("battery", ["sigma", "fo"])
    def test_every_row_has_one_schema(self, tmp_path, battery):
        out = tmp_path / battery
        assert run_cli([battery, "--trials", "200", "--out", str(out)]) == 0
        with open(out / "summary.csv", newline="") as fh:
            records = list(csv.DictReader(fh))
        assert records
        for rec in records:
            assert all(rec[k] != "" for k in ("measured", "bound", "satisfied")), rec
            assert float(rec["runtime_ms"]) > 0, rec
        rows = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        assert len({frozenset(r) for r in rows}) == 1

    @pytest.mark.parametrize("relations", [0, 1, 3])
    def test_commutator_sweep_runs_every_random_relation(self, tmp_path, relations):
        # m = 2 takes the odd relation of an odd count
        assert run_cli(["verify-commutator", "--relations", str(relations),
                        "--out", str(tmp_path)]) == 0
        rows = [json.loads(l) for l in (tmp_path / "results.jsonl").read_text().splitlines()]
        ms = [r["M"] for r in rows if r["experiment"] == "commutator-theorem" and r["n"] == 2]
        assert ms == [2] * (relations - relations // 2) + [3] * (relations // 2)

    def test_wrong_constant_fails(self, tmp_path, monkeypatch):
        theorem_bound = experiments.theorem_bound
        monkeypatch.setattr(experiments, "theorem_bound",
                            lambda n, gamma: 1e-6 * theorem_bound(n, gamma))
        code = run_cli(["verify-commutator", "--relations", "2",
                        "--out", str(tmp_path / "bad")])
        assert code == 1

    def test_config_file_dispatch(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "collision", "out": str(tmp_path / "via-config"),
        }))
        assert run_cli(["collision", "--config", str(cfg)]) == 0
        assert (tmp_path / "via-config" / "results.jsonl").exists()

    def test_fixtures_key_exit_2(self, tmp_path):
        name = list_fixtures()[0][0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "collision", "fixtures": [name],
            "out": str(tmp_path / "fx"),
        }))
        assert run_cli(["collision", "--config", str(cfg)]) == 2
        assert not (tmp_path / "fx").exists()

    def test_unknown_param_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "collision", "params": {"relatons": 5},
            "out": str(tmp_path / "typo"),
        }))
        assert run_cli(["collision", "--config", str(cfg)]) == 2
        assert not (tmp_path / "typo").exists()

    def test_known_param_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "fo", "params": {"trials": 50}, "out": str(tmp_path / "ok"),
        }))
        assert run_cli(["fo", "--trials", "7", "--config", str(cfg)]) == 0
        meta = json.loads((tmp_path / "ok" / "metadata.json").read_text())
        assert (meta["seed"], meta["trials"]) == (0, 50)

    def test_params_must_be_object_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "collision", "params": [1]}))
        assert run_cli(["collision", "--config", str(cfg)]) == 2

    def test_jobs_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["collision", "--jobs", "2", "--out", str(tmp_path / "j")])
        assert exc.value.code == 2

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run_cli(["collision", "--config", str(cfg)]) == 2


class TestSettings:
    """Each battery accepts --config, --out and only the settings it reads."""

    @pytest.mark.parametrize("battery", sorted(READS))
    def test_help_lists_only_read_flags(self, battery, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([battery, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"--([a-z-]+)", capsys.readouterr().out))
        assert flags == {"help", "config", "out"} | READS[battery]

    @pytest.mark.parametrize("battery,flag", UNREAD_FLAGS,
                             ids=[f"{b}-{f}" for b, f in UNREAD_FLAGS])
    def test_unread_flag_exit_2(self, tmp_path, battery, flag):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run_cli([battery, f"--{flag}", FLAG_VALUES[flag], "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("battery,flag,value", BAD_COUNTS,
                             ids=[f"{b}-{f}{v}" for b, f, v in BAD_COUNTS])
    def test_count_below_least_exit_2(self, tmp_path, battery, flag, value):
        out = tmp_path / "o"
        assert run_cli([battery, f"--{flag}", str(value), "--out", str(out)]) == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": battery, "params": {flag: value},
                                   "out": str(out)}))
        assert run_cli([battery, "--config", str(cfg)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("battery,cfg", [
        ("sweep", {"experiment": "collision"}),
        ("sigma", {"experiment": "fo", "params": {"trials": 5}}),
        ("collision", {"experiment": "collision", "sede": 4}),
        ("verify-theorem2", {"experiment": "verify-theorem2", "seed": 7}),
        ("sigma", {"experiment": "sigma", "backend": "sparse"}),
        ("collision", {"experiment": "collision", "params": {"trials": 5}}),
        ("fo", {"experiment": "fo", "params": {"backend": "sparse"}}),
        ("sweep", {"experiment": "sweep", "params": {"bound-scale": 1.0}}),
        ("fo", {"experiment": "fo", "params": {"trials": "5"}}),
        ("fo", {"experiment": "fo", "seed": 1.5}),
        ("equivalence", {"experiment": "equivalence", "backend": "quantum"}),
        ("collision", {"experiment": "collision", "out": 3}),
    ], ids=["mismatched-experiment", "mismatched-experiment-with-params",
            "typo-key", "unread-seed", "unread-backend", "unread-param-trials",
            "unread-param-backend", "unread-param-bound-scale", "string-trials",
            "float-seed", "unknown-backend", "non-string-out"])
    def test_config_error_exit_2(self, tmp_path, battery, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"out": str(tmp_path / "cfg-out"), **cfg}))
        code = run_cli([battery, "--config", str(path), "--out", str(tmp_path / "flag-out")])
        assert code == 2
        assert not (tmp_path / "cfg-out").exists()
        assert not (tmp_path / "flag-out").exists()


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "qrolab.cli", "list-fixtures"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) >= 10
