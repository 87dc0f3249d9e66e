import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distsym import cli, cells, oracle, verify
from distsym import xi as xi_mod
from distsym.cli import build_parser, main
from distsym.wchar import Bipartition, bipartitions
from distsym.xi import CoefficientViolation, RouteDisagreement, xi


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

    def test_each_class_is_formatted_once(self, capsys, monkeypatch):
        # one string per class serves the class list, the row keys and
        # every row's columns (65 + 65 + 65 * 65 calls otherwise)
        formatted = []
        original = Bipartition.__str__

        def counted(self):
            formatted.append(self)
            return original(self)

        bipartitions(6)  # built before counting
        monkeypatch.setattr(Bipartition, "__str__", counted)
        for fmt in (["--json"], []):
            code, _, _ = run_cli(capsys, "chartable", "6", *fmt)
            assert code == 0
            assert len(formatted) == len(bipartitions(6)) == 65
            formatted.clear()


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
        real = xi_mod._ROUTES["A"]
        trivial = ((4,), ())
        value = xi(2, "A").character.values[0]
        monkeypatch.setitem(
            xi_mod._ROUTES, "A", lambda n: {key: c for key, c in real(n).items() if key != trivial}
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

    @pytest.mark.parametrize("route", ["A", "B", "C"])
    def test_every_route_is_checked_on_w2n(self, capsys, monkeypatch, route):
        value = xi(2, "A").character.values[0]
        monkeypatch.setattr(xi_mod, "_xi_block", lambda value, mult, negative: 0)
        code, out, err = run_cli(capsys, "xi", "2", "--route", route, "--json")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "RouteDisagreement", "n": 2, "routes": ["A", f"{route} decomposition"],
            "class": "4;-", "values": ["0", str(value)],
        }


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
            raise RouteDisagreement(n, "A", "B", Bipartition((2,)), 1, 2)

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
        # the row's xi_all compares the decompositions, so a route that drops
        # a term ends the xi section with a FAIL row that names the term
        real = xi_mod._ROUTES["C"]

        def dropped_term(n):
            decomp = real(n)
            return dict(list(decomp.items())[1:]) if n == 2 else decomp

        monkeypatch.setitem(xi_mod._ROUTES, "C", dropped_term)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        row = "FAIL  xi checks  [xi(2): routes A and C differ at irreducible 1,1;1,1: 1 != 0]"
        assert row in out

    def test_each_route_is_built_once_per_n(self, monkeypatch):
        # the xi rows need routes A, B and C at n = 1..3: nine builds in all
        built = []
        for name, real in list(xi_mod._ROUTES.items()):
            def counted(n, name=name, real=real):
                built.append((n, name))
                return real(n)

            monkeypatch.setitem(xi_mod._ROUTES, name, counted)
        assert verify.run_verification().ok
        assert sorted(built) == [(n, r) for n in (1, 2, 3) for r in "ABC"]


class TestParserReuse:
    def test_reused_parser_carries_no_state(self, capsys, monkeypatch):
        assert build_parser() is build_parser()
        shared = cells.fourier_constituents(cells.make_cell(cells.even_strip_specials(2)[0]))

        def call(argv, overlap):
            with monkeypatch.context() as m:
                if overlap:
                    # every cell claims the first one's constituents, as in
                    # test_overlapping_families_fail_loudly
                    m.setattr(cells, "fourier_constituents", lambda cell: shared)
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            out, err = capsys.readouterr()
            return code, out, err

        sequence = [
            (["xi", "2", "--route", "B", "--json"], False),
            (["xi", "0"], False),  # a usage error
            (["cells", "--rank", "4"], True),  # a model violation
            (["xi", "2", "--route", "B", "--json"], False),
        ]
        builds = build_parser.cache_info().misses
        reused = [call(argv, overlap) for argv, overlap in sequence]
        assert build_parser.cache_info().misses == builds
        assert [code for code, _, _ in reused] == [0, 2, 1, 0]
        assert reused[0] == reused[3]
        # the same calls, each with a parser of its own
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        assert [call(argv, overlap) for argv, overlap in sequence] == reused


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


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv", [["verify"], ["cells", "--rank", "6"], ["xi", "2", "--json"]],
        ids=["verify", "cells", "xi"],
    )
    def test_closed_stdout_exits_one_with_nothing_on_stderr(self, argv):
        # the read end is closed before the command writes anything, so
        # every write to stdout fails, whatever the size of the output
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "distsym.cli", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class TestConsoleScript:
    @pytest.mark.parametrize("argv,code", [(["xi", "1", "--json"], 0), (["xi", "0"], 2)])
    def test_entrypoint_exits_with_the_code_of_main(self, capsys, monkeypatch, argv, code):
        # pyproject.toml's `distsym` script calls cli.entrypoint, which reads sys.argv
        monkeypatch.setattr(sys, "argv", ["distsym", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entrypoint()
        assert exc.value.code == code
        out = capsys.readouterr().out
        if code == 0:
            assert json.loads(out)["n"] == 1
        else:
            assert out == ""


# str with every kind of character json escapes: quotes, backslashes,
# control characters, non-ASCII text and lone surrogates (any code point,
# with the control and surrogate ones drawn more often)
_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.characters(categories=["Cs", "Cc"])
    | st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfffé€😀')
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | _TEXT
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    @example({})
    @example({"a": [], "b": {}, "c": ()})
    @example([True, False, None, 0, -1, 2**70, ""])
    def test_matches_json_dumps_indent_2(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [1.5, [0.0], {"a": float("nan")}, {1, 2}, [frozenset()], {1: 2}, {"a": {None: 1}},
         {True: 1}, [{(1,): 2}], b"bytes", object()],
    )
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli._dumps(value)


# every --json subcommand beyond the one golden size of each schema
_JSON_CALLS = (
    [["chartable", str(n)] for n in range(6)]
    + [["xi", str(n), f"--route={r}"] for n in (1, 2, 3) for r in ("A", "B", "C", "all")]
    + [["cells", "--rank", str(r)] for r in range(13)]
    + [["distinguished", "--n", str(n)] for n in range(1, 5)]
    + [["oracle", "verify", "--max-n", str(n)] for n in range(3)]
    + [["verify"]]
)


class TestJsonBytes:
    @pytest.mark.parametrize("argv", _JSON_CALLS, ids=" ".join)
    def test_output_is_json_dumps_indent_2(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_fail_rows_of_every_model_violation(self):
        z = cells.even_strip_specials(1)[0]
        errors = [
            RouteDisagreement(1, "A", "B", Bipartition((2,)), 1, 2),
            CoefficientViolation(2, "C", ((1,), (1,)), 2),
            cells.FamilyModelViolation(z, (1, 0), 2),
        ]
        assert {type(e) for e in errors} == set(verify.MODEL_VIOLATIONS)
        report = verify.VerificationReport(
            [verify.Check("a pass", verify.PASS, "ok")]
            + [verify.Check(f"{type(e).__name__} checks", verify.FAIL, str(e), e.payload)
               for e in errors]
        )
        payload = report.to_json()
        assert payload["ok"] is False
        assert cli._dumps(payload) == json.dumps(payload, indent=2)
