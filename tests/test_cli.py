import json
import re
from pathlib import Path

import pytest

from leinster import __version__, claims, cli
from leinster.cli import main


def zeroed(doc):
    for c in doc["claims"]:
        c["elapsed_ms"] = 0
    return doc


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--format", "json", "--out", str(out)])
    return code, zeroed(json.loads(out.read_text()))


class TestExitCodes:
    def test_verified_run_exits_zero(self, capsys):
        assert main(["census", "--bound", "40"]) == 0
        assert "census-40: verified" in capsys.readouterr().out

    def test_usage_error_exits_two(self, capsys):
        assert main(["census"]) == 2
        assert main(["no-such-command"]) == 2
        assert main([]) == 2

    def test_bad_value_exits_two(self, capsys):
        assert main(["census", "--bound", "-3"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["census", "pqrs"])
    def test_negative_bound_exits_two(self, command, capsys):
        assert main([command, "--bound", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("bound", ["-1", "2049"])
    def test_corpus_bound_out_of_range_exits_two(self, bound, capsys, monkeypatch):
        # rejected before any corpus table is built (2049 would first build
        # every squarefree group up to order 2048)
        monkeypatch.setattr(claims, "corpus_groups", lambda *a: pytest.fail("corpus built"))
        assert main(["theorems", "--corpus-bound", bound]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_out_into_missing_directory_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "cmd_census", lambda *a: pytest.fail("claim ran"))
        out = tmp_path / "missing" / "report.json"
        assert main(["census", "--bound", "40", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.parent.exists()

    def test_out_naming_a_directory_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "cmd_census", lambda *a: pytest.fail("claim ran"))
        assert main(["census", "--bound", "40", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_empty_out_exits_two(self, capsys, monkeypatch):
        # an empty path is not the absent --out: nothing goes to stdout
        monkeypatch.setattr(cli, "cmd_census", lambda *a: pytest.fail("claim ran"))
        assert main(["census", "--bound", "5", "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_unwritable_out_exits_two(self, tmp_path, capsys, monkeypatch):
        # the directory exists, but no file of a name this long can be created;
        # that is found before any claim runs
        monkeypatch.setattr(cli, "cmd_census", lambda *a: pytest.fail("claim ran"))
        out = tmp_path / ("r" * 300)
        assert main(["census", "--bound", "40", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_stdout_exits_two(self, capsys, monkeypatch):
        class BrokenStdout:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", BrokenStdout())
        assert main(["census", "--bound", "40"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "stdout" in err

    @pytest.mark.parametrize("args,claim_id", [
        (["census", "--bound", "1"], "census-1"),
        (["pqrs", "--bound", "100"], "pqrs-100"),
        (["p2qr", "--prime-bound", "3"], "p2qr-3"),
        (["theorems", "--corpus-bound", "0"], "thm-sigma-tau-multiplicative"),
    ])
    def test_partial_run_exits_one(self, args, claim_id, tmp_path, capsys):
        assert main(args) == 1
        assert f"{claim_id}: partial" in capsys.readouterr().out
        code, doc = run_json(args, tmp_path)
        assert code == 1
        assert {c["claim_id"]: c["status"] for c in doc["claims"]}[claim_id] == "partial"

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_two(self, jobs, capsys, monkeypatch):
        monkeypatch.setattr(cli, "cmd_verify_pqrs", lambda *a, **k: pytest.fail("claim ran"))
        assert main(["pqrs", "--bound", "30", "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag",
        [["--cache", "c.jsonl"], ["--no-cache"], ["--jobs", "2"]],
        ids=["cache", "no-cache", "jobs"],
    )
    def test_removed_cache_flags_are_usage_errors(self, flag, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["census", "--bound", "40", *flag]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_exit_two_after_open_leaves_out_empty(self, tmp_path, capsys):
        # --out is opened before the claim runs, as a shell's > FILE is
        out = tmp_path / "report.json"
        assert main(["census", "--bound", "50000", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == ""

    def test_census_bound_above_cap_exits_two(self, capsys):
        # a bound above CENSUS_CAP (20 000) is a capacity error, not a claim
        assert main(["census", "--bound", "50000"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: census bound 50000 exceeds the capacity 20000\n"
        assert captured.out == ""


class TestJsonReport:
    def test_shape(self, tmp_path):
        code, doc = run_json(["census", "--bound", "60"], tmp_path)
        assert code == 0
        assert doc["tool_version"] == __version__
        (claim,) = doc["claims"]
        assert claim["claim_id"] == "census-60"
        assert claim["status"] == "verified"
        assert {"statement", "evidence", "elapsed_ms"} <= set(claim)

    def test_determinism_census(self, tmp_path):
        _, a = run_json(["census", "--bound", "150"], tmp_path, "a.json")
        _, b = run_json(["census", "--bound", "150"], tmp_path, "b.json")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_determinism_theorems(self, tmp_path):
        _, a = run_json(["theorems", "--corpus-bound", "40"], tmp_path, "a.json")
        _, b = run_json(["theorems", "--corpus-bound", "40"], tmp_path, "b.json")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_determinism_p2qr(self, tmp_path):
        _, a = run_json(["p2qr", "--prime-bound", "13"], tmp_path, "a.json")
        _, b = run_json(["p2qr", "--prime-bound", "13"], tmp_path, "b.json")
        assert a == b


class TestOtherCommands:
    def test_pqrs_text(self, capsys):
        assert main(["pqrs", "--bound", "250"]) == 0
        out = capsys.readouterr().out
        assert "pqrs-250: verified" in out
        assert "1/1 claims verified" in out

    def test_list_claims(self, capsys):
        assert main(["list-claims"]) == 0
        out = capsys.readouterr().out
        assert "thm-cyclic-quotient" in out
        assert "eq:thm26-final" in out

    def test_list_claims_json(self, tmp_path):
        out = tmp_path / "claims.json"
        assert main(["list-claims", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert "census-<bound>" in doc["claims"]

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out


def test_memory_gate_pqrs_pin_equals_the_bench_pin():
    # the serial report's hash is kept by hand in the workflow's memory gate
    # for pqrs --bound 2500 --jobs 2 and in the benchmark's pqrs-2500 workload
    root = Path(__file__).resolve().parent.parent
    bench = (root / "bench" / "run.py").read_text()
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    bench_pin = re.search(r'"pqrs-2500": Workload\((?s:.*?)"([0-9a-f]{64})"', bench)
    gate_pin = re.search(r'\["pqrs", "--bound", "2500", "--jobs", "2"\], "([0-9a-f]{64})"', workflow)
    assert bench_pin and gate_pin
    assert gate_pin.group(1) == bench_pin.group(1)
