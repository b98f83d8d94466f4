"""The library's record types: immutable, compared and hashed by value, with
readable reprs and the argument checks of their constructors."""

import copy
import pickle

import pytest

from claguerre.alpha_calc import ReducedPoly
from claguerre.integrate import QuadratureRule, gauss_laguerre
from claguerre.laguerre import GeneratingExpansion, generating_series
from claguerre.laplace import NamedSignal
from claguerre.recurrence import laguerre_pair
from claguerre.tables import SampleTable, build_table
from claguerre.verify import FIGURES, FigureFixture, SuiteResult

U = ReducedPoly.monomial(1)
_formula = FIGURES[0].formula


def _expansion():
    return GeneratingExpansion((ReducedPoly.one(), ReducedPoly((2, -1))))


# (record factory, its field names); each call builds a fresh, equal record.
RECORDS = [
    (lambda: SampleTable(("x", "y"), ((0.0, 1.0), (1.0, 2.0))), ("columns", "values")),
    (lambda: QuadratureRule((0.5, 1.5), (0.5, 0.5), 2), ("nodes", "weights", "order")),
    (lambda: NamedSignal("sin_wu", omega=2.0), ("kind", "p", "omega")),
    (lambda: FigureFixture(1, 1, 0, _formula), ("number", "n", "m", "formula")),
    (lambda: SuiteResult("a/b", True, "ok"), ("name", "passed", "detail")),
    (_expansion, ("coefficient_polys",)),
]
IDS = [
    "SampleTable", "QuadratureRule", "NamedSignal", "FigureFixture",
    "SuiteResult", "GeneratingExpansion",
]


@pytest.mark.parametrize("make, fields", RECORDS, ids=IDS)
class TestRecord:
    def test_fields_cannot_be_assigned(self, make, fields):
        record = make()
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_equal_fields_give_equal_records_and_hashes(self, make, fields):
        first, second = make(), make()
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)

    def test_copies_and_pickles_equal_the_original(self, make, fields):
        record = make()
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        if "formula" not in fields:  # a lambda does not pickle
            assert pickle.loads(pickle.dumps(record)) == record

    def test_repr_names_the_fields(self, make, fields):
        text = repr(make())
        assert text.startswith(f"{type(make()).__name__}(")
        positions = [text.index(f"{name}=") for name in fields]
        assert positions == sorted(positions)


def test_reprs_in_full():
    assert repr(NamedSignal("one")) == "NamedSignal(kind='one', p=0.0, omega=1.0)"
    assert repr(SuiteResult("a/b", False, "off")) == (
        "SuiteResult(name='a/b', passed=False, detail='off')"
    )


def test_records_with_different_fields_differ():
    assert NamedSignal("one") != NamedSignal("exp_u")
    assert SuiteResult("a/b", True, "ok") != SuiteResult("a/b", False, "ok")
    assert _expansion() != generating_series(0, 1)


def test_named_signal_defaults():
    sig = NamedSignal("one")
    assert (sig.kind, sig.p, sig.omega) == ("one", 0.0, 1.0)
    assert NamedSignal("power_p", p=1.5).p == 1.5


def test_sample_table_csv_layout():
    table = SampleTable(("x", "y", "z"), ((0.0, 2.5), (1.5, 1e-300), (-0.0, 3e16)))
    assert table.to_csv() == "x,y,z\n0.0,1.5,-0.0\n2.5,1e-300,3e+16\n"
    assert table.rows == ((0.0, 1.5, -0.0), (2.5, 1e-300, 3e16))
    header_only = SampleTable(("x",), ((),))
    assert header_only.to_csv() == "x\n"
    assert header_only.rows == ()


def test_built_table_passes_the_public_checks():
    table = build_table(3, 1, (0.5, 1.0), 0.0, 6.0, 40)
    assert type(table) is SampleTable
    assert SampleTable(*table) == table
    assert len(table.values) == len(table.columns) == 3
    assert all(type(column) is tuple and len(column) == 40 for column in table.values)


def test_built_table_rows_are_the_per_point_recurrence():
    alphas = (0.25, 0.5, 1.0)
    table = build_table(6, 2, alphas, 0.5, 7.5, 30)
    assert type(table.rows) is tuple
    assert [x.hex() for x in table.values[0]] == [
        (0.5 + i * (7.0 / 29)).hex() for i in range(30)
    ]
    want = [
        (x, *(laguerre_pair(6, 2, x**a / a)[0] for a in alphas)) for x in table.values[0]
    ]
    assert [tuple(v.hex() for v in row) for row in table.rows] == [
        tuple(v.hex() for v in row) for row in want
    ]


def test_memoised_gauss_rule_is_shared_and_immutable():
    rule = gauss_laguerre(4)
    assert gauss_laguerre(4) is rule
    with pytest.raises(AttributeError):
        rule.nodes = (1.0, 2.0, 3.0, 4.0)
    assert rule.order == 4 and len(rule.nodes) == 4


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SampleTable(("x", "y"), ((1.0, 1.0), (0.0, 0.0))),
         "x values must be strictly increasing"),
        (lambda: SampleTable(("x", "y"), ((0.0,),)),
         "need one value column per header name, each as long as x"),
        pytest.param(lambda: SampleTable(("x", "y"), ((0.0, 1.0), (0.0,))),
                     "need one value column per header name, each as long as x",
                     id="SampleTable-short-value-column"),
        pytest.param(lambda: SampleTable(("x", "y"), ((0.0,), (0.0, 1.0))),
                     "need one value column per header name, each as long as x",
                     id="SampleTable-long-value-column"),
        (lambda: SampleTable(("x", "y"), ((0.0,), (float("nan"),))),
         "table values must be finite"),
        (lambda: QuadratureRule((0.5,), (1.0,), 2),
         "rule must hold exactly `order` nodes and weights"),
        (lambda: QuadratureRule((1.0, 0.5), (0.5, 0.5), 2),
         "nodes must be strictly increasing"),
        (lambda: QuadratureRule((0.5, 1.0), (1.2, -0.2), 2), "weights must be positive"),
        (lambda: QuadratureRule((0.5, 1.0), (0.7, 0.2), 2),
         "weights must sum to 1 (zeroth moment)"),
        (lambda: NamedSignal("nope"), "unknown signal kind 'nope'"),
        (lambda: NamedSignal("power_p", p=-1.0),
         "power must be a finite number >= 0, got -1.0"),
        (lambda: NamedSignal("power_p", p=float("nan")),
         "power must be a finite number >= 0, got nan"),
        (lambda: NamedSignal("sin_wu", omega=float("inf")),
         "omega must be a finite number, got inf"),
        (lambda: GeneratingExpansion((ReducedPoly.one(), U * U)),
         "coefficient of t^1 has degree 2"),
    ],
)
def test_constructor_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_expansion_indexes_and_iterates_its_coefficients():
    expansion = generating_series(1, 4)
    polys = expansion.coefficient_polys
    assert len(polys) == 5
    assert [expansion[n] for n in range(5)] == list(polys)
    assert list(expansion) == list(polys)
    assert expansion[-1] is polys[-1]


def test_expansion_is_a_tuple_of_its_coefficients():
    expansion = generating_series(2, 5)
    assert type(expansion) is GeneratingExpansion
    assert isinstance(expansion, tuple)
    assert len(expansion) == 6 and not hasattr(expansion, "order")
    assert type(expansion.coefficient_polys) is tuple
    assert expansion.coefficient_polys == tuple(expansion)
    for twin in (copy.copy(expansion), copy.deepcopy(expansion),
                 pickle.loads(pickle.dumps(expansion))):
        assert type(twin) is GeneratingExpansion
        assert twin.coefficient_polys == expansion.coefficient_polys
