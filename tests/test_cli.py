import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from distsym import cli, cells, oracle, verify
from distsym.cli import build_parser, main
from distsym.wchar import Bipartition
from distsym.xi import RouteDisagreement, xi

# distsym.xi is the function; the module has to come from importlib
xi_mod = importlib.import_module("distsym.xi")


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

    def test_route_a_decomposition_is_checked(self, capsys, monkeypatch):
        real = xi_mod._route_a_decomposition
        trivial = Bipartition.of((4,))
        value = xi(2, "A").character.values[0]
        monkeypatch.setattr(
            xi_mod,
            "_route_a_decomposition",
            lambda n: {bp: c for bp, c in real(n).items() if bp != trivial},
        )
        code, out, err = run_cli(capsys, "xi", "2", "--route", "A")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "RouteDisagreement", "n": 2, "routes": ["A", "A decomposition"],
            "class": "4;-", "values": [str(value), str(value - 1)],
        }
        # with every route, xi_all compares the decompositions first
        code, out, err = run_cli(capsys, "xi", "2")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "RouteDisagreement", "n": 2, "routes": ["A", "B"],
            "irreducible": "4;-", "values": ["0", "1"],
        }

    def test_route_a_closed_form_is_checked_with_every_route(self, capsys, monkeypatch):
        value = xi(2, "A").character.values[0]
        monkeypatch.setattr(xi_mod, "_xi_block", lambda value, mult, negative: 0)
        code, out, err = run_cli(capsys, "xi", "2", "--json")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "RouteDisagreement", "n": 2, "routes": ["A", "A decomposition"],
            "class": "4;-", "values": ["0", str(value)],
        }

    def test_routes_b_and_c_are_not_checked_on_w2n(self, capsys, monkeypatch):
        def refuse(result):
            raise AssertionError("route A's check ran")

        monkeypatch.setattr(cli, "check_route_a", refuse)
        for route in ("B", "C"):
            code, _, _ = run_cli(capsys, "xi", "2", "--route", route)
            assert code == 0


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
        # every cell claims the constituents of the first one, so the second
        # cell is the first to meet an earlier family
        shared = cells.fourier_constituents(cells.make_cell(cells.even_strip_specials(2)[0]))
        monkeypatch.setattr(cells, "fourier_constituents", lambda cell: shared)
        code, out, err = run_cli(capsys, "cells", "--rank", "4")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "FamilyModelViolation",
            "special_symbol": "0,3|2",
            "family_index": [],
            "multiplicity": "0,1,2|2,3 is also carried by 0,2,3|1,2",
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

    def test_route_agreement_row_checks_route_a_on_w2n(self, capsys, monkeypatch):
        monkeypatch.setattr(xi_mod, "_xi_block", lambda value, mult, negative: 0)
        code, out, err = run_cli(capsys, "verify", "--json")
        assert code == 1 and err == ""
        failed = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
        assert failed == [
            {
                "name": "xi checks",
                "status": "fail",
                "detail": "xi(1): routes A and A decomposition differ at class 2;-: 0 != 2",
                "payload": {
                    "n": 1, "routes": ["A", "A decomposition"], "class": "2;-",
                    "values": ["0", "2"],
                },
            }
        ]

    def test_family_model_violation_is_a_fail_row(self, capsys, monkeypatch):
        z = cells.even_strip_specials(1)[0]

        def overlap(cell):
            raise cells.FamilyModelViolation(z, (0,), 2)

        expected = [(c.name, c.status) for c in verify.run_verification().checks]
        monkeypatch.setattr(cells, "fourier_constituents", overlap)
        code, out, err = run_cli(capsys, "verify", "--json")
        assert code == 1 and err == ""
        checks = json.loads(out)["checks"]
        assert checks[-1] == {
            "name": "cells checks",
            "status": "fail",
            "detail": "family model violation at Z=0,2|1, A=[0]: multiplicity 2",
            "payload": {"special_symbol": "0,2|1", "family_index": [0], "multiplicity": "2"},
        }
        # every row before the failing cell is still reported
        earlier = [(c["name"], c["status"]) for c in checks[:-1]]
        assert earlier == expected[: len(earlier)]
        assert ("xi route agreement n=1..3", "pass") in earlier
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL  cells checks  [family model violation at Z=0,2|1" in out

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["chartable", str(cli.CHARTABLE_MAX_N + 1)],
            ["xi", str(cli.XI_MAX_N + 1)],
            ["cells", "--rank", str(cli.CELLS_MAX_RANK + 1)],
            ["distinguished", "--n", str(cli.CELLS_MAX_RANK // 2 + 1)],
            ["oracle", "verify", "--max-n", str(cli.ORACLE_MAX_N + 1)],
        ],
        ids=["chartable", "xi", "cells", "distinguished", "oracle"],
    )
    def test_one_past_the_bound_exits_two(self, capsys, monkeypatch, argv):
        def ran(*args, **kwargs):
            raise AssertionError("the worker ran")

        for module, name in [
            (cli, "character_table"),
            (cli, "xi_all"),
            (cells, "rank_report"),
            (oracle, "verify_claims"),
        ]:
            monkeypatch.setattr(module, name, ran)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be at most" in capsys.readouterr().err

    def test_each_bound_is_accepted(self):
        parse = build_parser().parse_args
        assert parse(["chartable", "12"]).n == 12
        assert parse(["xi", "10"]).n == 10
        assert parse(["cells", "--rank", "42"]).rank == 42
        assert parse(["distinguished", "--n", "21"]).n == 21
        assert parse(["oracle", "verify", "--max-n", "3"]).max_n == 3

    def test_exit_two_without_traceback_from_the_shell(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        for argv in (["xi", "11"], ["chartable", "-1"]):
            proc = subprocess.run(
                [sys.executable, "-m", "distsym.cli", *argv],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 2, proc.stderr
            assert "Traceback" not in proc.stderr
