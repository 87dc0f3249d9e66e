import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from distsym import cells, oracle, verify
from distsym.cli import main
from distsym.wchar import Bipartition
from distsym.xi import RouteDisagreement


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChartable:
    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "chartable", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2
        assert payload["classes"] == ["2;-", "1,1;-", "1;1", "-;2", "-;1,1"]
        assert payload["rows"]["2;-"] == {c: 1 for c in payload["classes"]}
        assert payload["rows"]["1;1"]["1,1;-"] == 2

    def test_table_mode(self, capsys):
        code, out, _ = run_cli(capsys, "chartable", "1")
        assert code == 0
        assert "1;-" in out and "-;1" in out


class TestXiCommand:
    def test_route_all(self, capsys):
        code, out, _ = run_cli(capsys, "xi", "1", "--route=all", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["agreement"]["agree"] is True
        assert payload["agreement"]["routes_compared"] == ["A", "B", "C"]
        char = payload["routes"]["A"]["character"]
        assert [char[c] for c in ("1,1;-", "2;-", "1;1", "-;2", "-;1,1")] == [
            2,
            2,
            0,
            2,
            -2,
        ]

    def test_single_route(self, capsys):
        code, out, _ = run_cli(capsys, "xi", "2", "--route=B", "--json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload["routes"]) == ["B"]

    def test_json_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "xi", "2", "--json")
        _, second, _ = run_cli(capsys, "xi", "2", "--json")
        assert first == second


class TestCellsCommands:
    def test_distinguished_rank2(self, capsys):
        code, out, _ = run_cli(capsys, "distinguished", "--n", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 3
        assert "0,1,2|-" in payload["union"]
        assert payload["cuspidal_present"] is True

    def test_cells_matches_distinguished(self, capsys):
        for n in range(1, 7):
            for fmt in (["--json"], []):
                _, via_cells, _ = run_cli(capsys, "cells", "--rank", str(2 * n), *fmt)
                _, via_dist, _ = run_cli(capsys, "distinguished", "--n", str(n), *fmt)
                assert via_cells == via_dist

    def test_odd_rank_is_empty(self, capsys):
        for rank in range(1, 12, 2):
            code, out, _ = run_cli(capsys, "cells", "--rank", str(rank), "--json")
            assert code == 0
            payload = json.loads(out)
            assert payload["cells"] == [] and payload["count"] == 0
            assert payload["union"] == [] and payload["cuspidal_present"] is False
        # rank 0 is not empty: its one cell is the cuspidal symbol 0|-
        code, out, _ = run_cli(capsys, "cells", "--rank", "0", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["count"] == 1
        assert payload["union"] == ["0|-"] and payload["cuspidal_present"] is True

    def test_overlapping_families_fail_loudly(self, capsys, monkeypatch):
        # every cell claims the constituents of the first one
        shared = cells.fourier_constituents(cells.make_cell(cells.even_strip_specials(2)[0]))
        monkeypatch.setattr(cells, "fourier_constituents", lambda cell: shared)
        code, out, err = run_cli(capsys, "cells", "--rank", "4")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "FamilyModelViolation",
            "special_symbol": "0,2,3|1,2",
            "family_index": [],
            "multiplicity": "union size 2 != 7",
        }

    def test_text_mode(self, capsys):
        code, out, _ = run_cli(capsys, "distinguished", "--n", "1")
        assert code == 0
        assert "Z = 0,2|1" in out


class TestOracleCommand:
    def test_verify(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "verify", "--max-n", "1")
        assert code == 0
        assert "FAIL" not in out and "PASS" in out


class TestVerifyCommand:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("NOTED") == 2

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        statuses = {c["status"] for c in payload["checks"]}
        assert statuses == {"pass", "discrepancy-documented"}

    def test_route_disagreement_is_a_fail_row(self, capsys, monkeypatch):
        def disagree(n):
            raise RouteDisagreement(n, "A", "B", Bipartition.of((2,)), 1, 2)

        monkeypatch.setattr(verify, "xi_all", disagree)
        code, out, err = run_cli(capsys, "verify", "--json")
        assert code == 1 and err == ""
        checks = json.loads(out)["checks"]
        failed = [c for c in checks if c["status"] == "fail"]
        assert failed == [
            {
                "name": "xi checks",
                "status": "fail",
                "detail": "xi(1): routes A and B differ at class 2;-: 1 != 2",
                "payload": {"n": 1, "routes": ["A", "B"], "class": "2;-", "values": ["1", "2"]},
            }
        ]
        assert checks[-1]["name"] == "rank-6 cuspidal flag"  # later sections still ran

    def test_route_agreement_row_compares_decompositions(self, capsys, monkeypatch):
        real = verify.xi_all

        def dropped_term(n):
            results = real(n)
            if n == 2:
                c = results["C"]
                fewer = dict(list(c.decomposition.items())[1:])
                results["C"] = dataclasses.replace(c, decomposition=fewer)
            return results

        monkeypatch.setattr(verify, "xi_all", dropped_term)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL  xi route agreement n=1..3  [computed False, expected True]" in out


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        # --format is gone too: --json is the one switch to the JSON schema
        for flag in ("--frobnicate", "--format=json"):
            with pytest.raises(SystemExit) as exc:
                main(["xi", "1", flag])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["chartable", "-1"],
            ["xi", "0"],
            ["cells", "--rank", "-2"],
            ["distinguished", "--n", "0"],
            ["oracle", "verify", "--max-n", "-1"],
        ],
    )
    def test_out_of_range_arguments(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    def test_malformed_rank_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("DISTSYM_MAX_RANK", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["xi", "1"])
        assert exc.value.code == 2
        assert "DISTSYM_MAX_RANK must be an integer" in capsys.readouterr().err

    def test_exit_two_without_traceback_from_the_shell(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "DISTSYM_MAX_RANK": "abc"}
        for argv in (["xi", "1"], ["chartable", "-1"]):
            proc = subprocess.run(
                [sys.executable, "-m", "distsym.cli", *argv],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 2, proc.stderr
            assert "Traceback" not in proc.stderr

    def test_oracle_rank_cap(self, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "verify", "--max-n", "7"])  # rank 14 > 12
        assert exc.value.code == 2
        monkeypatch.setenv("DISTSYM_MAX_RANK", "4")
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "verify", "--max-n", "1", "--include-w6"])  # rank 6 > 4
        assert exc.value.code == 2

    def test_oracle_bound_above_the_rank_cap(self, capsys, monkeypatch):
        def enumerate_anyway(**kwargs):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(oracle, "verify_claims", enumerate_anyway)
        monkeypatch.setenv("DISTSYM_MAX_RANK", "100")
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "verify", "--max-n", "4"])  # W_8, inside the rank cap
        assert exc.value.code == 2
        assert "the oracle stops at --max-n 3" in capsys.readouterr().err

    def test_rank_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("DISTSYM_MAX_RANK", "2")
        with pytest.raises(SystemExit) as exc:
            main(["chartable", "3"])
        assert exc.value.code == 2
        monkeypatch.setenv("DISTSYM_MAX_RANK", "4")
        assert main(["chartable", "3"]) == 0
