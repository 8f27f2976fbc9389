"""CLI tests: subcommands, exit codes, output determinism, fixtures."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qrolab
from qrolab.cli import main
from qrolab.fixtures import list_fixtures, load, parse_fixture


def run_cli(args):
    return main(list(args))


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
            assert run_cli(["interfaces", "--seed", "9",
                            "--out", str(out)]) == 0
        assert (out1 / "results.jsonl").read_bytes() == \
            (out2 / "results.jsonl").read_bytes()

    @pytest.mark.parametrize("args,hash_seeds", [
        (["fo", "--trials", "50"], ("1", "2")),
        (["verify-commutator", "--relations", "4"], ("0", "0")),
    ], ids=["fo", "verify-commutator"])
    def test_fresh_processes_write_identical_results(self, tmp_path, args, hash_seeds):
        # total_variation once followed the set's hash order, and Lanczos
        # its own unseeded start vector: both change between processes
        src = str(Path(qrolab.__file__).parents[1])
        outs = []
        for i, hash_seed in enumerate(hash_seeds):
            out = tmp_path / str(i)
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run(
                [sys.executable, "-m", "qrolab.cli", *args, "--seed", "0", "--out", str(out)],
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
        rows = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        assert len({frozenset(r) for r in rows}) == 1

    def test_wrong_constant_fails(self, tmp_path):
        code = run_cli(["verify-commutator", "--relations", "2",
                        "--bound-scale", "1e-6",
                        "--out", str(tmp_path / "bad")])
        assert code == 1

    def test_config_file_dispatch(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "collision", "seed": 4,
            "out": str(tmp_path / "via-config"),
        }))
        assert run_cli(["sweep", "--config", str(cfg)]) == 0
        assert (tmp_path / "via-config" / "results.jsonl").exists()

    def test_missing_fixture_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "collision", "fixtures": ["nope-not-here"],
        }))
        assert run_cli(["collision", "--config", str(cfg)]) == 2

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
            "experiment": "collision", "params": {"bound-scale": 1.0, "trials": 5},
            "out": str(tmp_path / "ok"),
        }))
        assert run_cli(["collision", "--config", str(cfg)]) == 0

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


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "qrolab.cli", "list-fixtures"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) >= 10
