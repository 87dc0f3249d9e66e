"""Every record of the package is a tuple of its fields.

Each record copies, deep-copies and pickles to an equal object of its own
type, prints in the keyword form that error messages show, and keeps the
checks of its constructor.  Importing the package and its CLI loads
neither dataclasses nor inspect, which cost most of a cold start.
"""

import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from distsym import cells
from distsym.partitions import SkewShape, iter_tableaux
from distsym.symbols import SpecialSymbol, Symbol
from distsym.verify import Check, VerificationReport
from distsym.xi import CoefficientViolation, XiResult, kappa, xi

ROOT = Path(__file__).resolve().parent.parent

Z = SpecialSymbol(Symbol.parse("0,2|1"))
Z_REPR = "SpecialSymbol(symbol=Symbol(top=(0, 2), bottom=(1,)))"
SHAPE_REPR = "SkewShape(outer=Partition(parts=(2, 1)), inner=Partition(parts=(1,)))"
# the one cell at rank 0: Z = 0|- with no pairs
POINT = "Symbol(top=(0,), bottom=())"
POINT_FIELDS = ((1, (0,), ()), (0,), ())
POINT_CELL_FIELDS = (POINT_FIELDS, (1,), (0,))
POINT_CELL = f"Cell(z=SpecialSymbol(symbol={POINT}), signs=(1,), masks=(0,))"

# (record, the plain tuple of its fields, its repr)
RECORDS = [
    (SkewShape((2, 1), (1,)), ((2, 1), (1,)), SHAPE_REPR),
    (
        next(iter_tableaux(SkewShape((2, 1), (1,)))),
        (((2, 1), (1,)), ((1, 2, 1), (2, 1, 1))),
        f"Tableau(shape={SHAPE_REPR}, entries=((1, 2, 1), (2, 1, 1)))",
    ),
    (Z, ((1, (0, 2), (1,)), (0, 1, 2), ()), Z_REPR),
    (
        cells.Arrangement(((1, 0),), 2),
        (((0, 1),), 2),
        "Arrangement(pairs=((0, 1),), isolated=2)",
    ),
    (
        cells.make_cell(Z),
        (Z, (1, -1), (0, 3)),
        f"Cell(z={Z_REPR}, signs=(1, -1), masks=(0, 3))",
    ),
    (
        cells.rank_report(0).entries[0],
        (POINT_CELL_FIELDS, ((1, (0,), ()),)),
        f"CellEntry(cell={POINT_CELL}, constituents=({POINT},))",
    ),
    (
        cells.rank_report(0),
        (0, [(POINT_CELL_FIELDS, ((1, (0,), ()),))], ((1, (0,), ()),), 1, True),
        f"DistinguishedReport(rank=0, entries=[CellEntry(cell={POINT_CELL}, "
        f"constituents=({POINT},))], union=({POINT},), count=1, cuspidal_present=True)",
    ),
    (
        cells.rank_report(1),
        (1, [], (), 0, False),
        "DistinguishedReport(rank=1, entries=[], union=(), count=0, cuspidal_present=False)",
    ),
    (
        xi(1, "A"),
        (1, "A", {((2,), ()): 1, ((1, 1), ()): -1, ((1,), (1,)): 1}),
        "XiResult(n=1, route='A', decomposition={((2,), Partition(parts=())): 1, "
        "((1, 1), Partition(parts=())): -1, ((1,), Partition(parts=(1,))): 1})",
    ),
    (kappa(1), (2, (2, 0, 0, 2, 0)), "ClassFunction(n=2, {'2;-': 2, '-;2': 2})"),
    (
        Check("x", "pass", "d"),
        ("x", "pass", "d", None),
        "Check(name='x', status='pass', detail='d', payload=None)",
    ),
    (
        VerificationReport([Check("x", "fail", "d", {"n": 1})]),
        ([("x", "fail", "d", {"n": 1})],),
        "VerificationReport(checks=[Check(name='x', status='fail', detail='d', "
        "payload={'n': 1})])",
    ),
]


@pytest.mark.parametrize(
    "record,fields,text", RECORDS, ids=[type(r).__name__ for r, _, _ in RECORDS]
)
def test_record_is_its_tuple_of_fields(record, fields, text):
    assert isinstance(record, tuple) and record == fields
    for same in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(same) is type(record) and same == record
    # the dataclass form, which error messages and reports print
    assert repr(record) == text


def test_every_record_type_is_covered():
    assert {type(r).__name__ for r, _, _ in RECORDS} == {
        "SkewShape", "Tableau", "SpecialSymbol", "Arrangement", "Cell", "CellEntry",
        "DistinguishedReport", "XiResult", "ClassFunction", "Check", "VerificationReport",
    }


def test_xi_result_character_survives_a_pickle():
    result = xi(2, "B")
    char = result.character
    assert result.character is char  # evaluated once, on first read
    assert pickle.loads(pickle.dumps(result)).character == char


class TestConstructorChecks:
    def test_special_symbol(self):
        with pytest.raises(ValueError, match=re.escape("1,2|0 is not special")):
            SpecialSymbol(Symbol.parse("1,2|0"))
        assert Z.singles() == (0, 1, 2) and Z.doubles() == () and Z.symbol == Z[0]

    def test_skew_shape(self):
        with pytest.raises(ValueError, match=re.escape("inner 3 not contained in outer 2")):
            SkewShape((2,), (3,))

    def test_arrangement_sorts_each_pair_then_the_pairs(self):
        arr = cells.Arrangement([(3, 2), (1, 0)], 4)
        assert arr.pairs == ((0, 1), (2, 3)) and arr == cells.Arrangement(((0, 1), (2, 3)), 4)

    def test_xi_result(self):
        with pytest.raises(CoefficientViolation, match=re.escape("xi(1) route A: coefficient 2")):
            XiResult(1, "A", {((2,), ()): 2})
        # zero coefficients are dropped
        assert XiResult(1, "A", {((2,), ()): 0, ((1,), (1,)): 1}).decomposition == {
            ((1,), (1,)): 1
        }


def test_cold_import_loads_no_dataclasses_or_inspect():
    # -S keeps site hooks from importing modules of their own
    code = (
        "import sys, distsym, distsym.cli; "
        "print(*(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
