"""The vectorised cells of ``cli._number_cells`` against ``json.dumps`` of each value, and the tables written with them.

For a finite float ``json.dumps`` writes ``repr``, the shortest decimal that reads back to the float, the
nearest such when there are several and the one with an even last digit on a tie.
"""

import json
import math
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohstat import cli
from cohstat.cli import RunConfig

CHUNK = 2**16  # values per kernel call in these tests, so that its temporaries stay small


def assert_cells_are_json(values):
    """Each value's cell, its NUL padding dropped, is ``json.dumps`` of the value."""
    values = np.asarray(values)
    for start in range(0, values.size, CHUNK):
        part = values[start:start + CHUNK]
        cells = np.ascontiguousarray(cli._number_cells(part))
        assert cells.dtype == np.uint8 and cells.shape[0] == part.size
        # a bytes dtype ignores trailing NULs only: a NUL inside a cell is a mismatch
        got = cells.view(f"S{cells.shape[1]}").ravel()
        expected = np.array([json.dumps(value).encode() for value in part.tolist()])
        wrong = np.flatnonzero(got != expected)
        shown = [(part[i].item(), got[i], expected[i]) for i in wrong[:5]]
        assert wrong.size == 0, f"{wrong.size} of {part.size} cells differ, e.g. {shown}"


def with_negatives(values):
    values = np.asarray(values, np.float64)
    return np.concatenate([values, -values])


def neighbours(values):
    """Each finite value and the floats one ulp on either side of it."""
    values = np.asarray(values, np.float64)
    around = np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])
    return around[np.isfinite(around)]


def test_random_bit_patterns():
    bits = np.random.default_rng(20260421).integers(0, 2**64, size=10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_cells_are_json(values[np.isfinite(values)])


def test_subnormals():
    # every mantissa below 2**17, from 0.0 and 5e-324 up, and the same with the sign bit set
    assert_cells_are_json(with_negatives(np.arange(2**17, dtype=np.uint64).view(np.float64)))


def test_powers_of_two_and_their_neighbours():
    assert_cells_are_json(with_negatives(neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))))


def test_powers_of_ten_and_their_neighbours():
    assert_cells_are_json(with_negatives(neighbours([float(f"1e{e}") for e in range(-323, 309)])))


def test_positional_and_exponent_forms_switch_where_repr_does():
    # repr writes 0.0001 but 1e-05, 1000000000000000.0 but 1e+16, and -0.0 with its sign
    edges = [1e-4, 1e-5, 1e15, 1e16, 1e17, 9.999999999999999e-05, 9999999999999998.0, 123456789012345680.0]
    values = with_negatives(neighbours(neighbours(edges)))
    assert_cells_are_json(np.concatenate([values, [0.0, -0.0, 0.1, 1.0, 1.5, 100.0, 2.5e-300, 1.7976931348623157e308]]))
    assert [json.dumps(v) for v in (1e-4, 1e-5, 1e15, 1e16)] == ["0.0001", "1e-05", "1000000000000000.0", "1e+16"]


def exact_ties(values):
    """The values exactly halfway between two decimals one digit longer than ``repr``'s, that digit a 5."""
    ties = []
    for value in values.tolist():
        exact = Decimal(value).normalize().as_tuple().digits
        shortest = Decimal(repr(value)).normalize().as_tuple().digits
        if len(exact) == len(shortest) + 1 and exact[-1] == 5:
            ties.append(value)
    return np.array(ties)


def test_ties_go_to_the_even_digit():
    # from 2**41 to 2**51 a double can lie exactly halfway between its two shortest candidates:
    # 2**49 + 0.25 is written 562949953421312.2, and 2**49 + 0.75 is written 562949953421312.8
    starts = np.ldexp(1.37, np.arange(41, 52))
    values = np.concatenate([start + np.arange(3000) * np.spacing(start) for start in starts])
    ties = exact_ties(values)
    assert ties.size >= 100
    assert_cells_are_json(with_negatives(ties))
    assert [json.dumps(2.0**49 + f) for f in (0.25, 0.75)] == ["562949953421312.2", "562949953421312.8"]
    assert_cells_are_json([2.0**49 + 0.25, 2.0**49 + 0.75])


def test_int64_cells():
    edges = [0, 1, -1, 9, 10, 99, 100, 10**18, -(10**18), 2**63 - 1, -(2**63)]
    values = np.random.default_rng(7).integers(-(2**63), 2**63 - 1, size=10**5, dtype=np.int64, endpoint=True)
    assert_cells_are_json(np.concatenate([values, np.array(edges, np.int64)]))


def test_schubfach_table_is_exact():
    # g(k) = floor(10**-k 2**-r) + 1 with r = floor(log2(10**-k)) - 125, from exact rationals
    g1, g0 = cli._schubfach_table()
    assert g1.size == g0.size == 617
    for index, k in enumerate(range(-324, 293)):
        power = Fraction(10) ** -k
        floor_log2 = power.numerator.bit_length() - power.denominator.bit_length()
        if Fraction(2) ** floor_log2 > power:
            floor_log2 -= 1
        g = math.floor(power / Fraction(2) ** (floor_log2 - 125)) + 1
        assert int(g0[index]) < 2**63
        assert (int(g1[index]) << 63) + int(g0[index]) == g, k
        assert 2**125 < g <= 2**126


def as_records(payload):
    columns = payload["rows"]
    rows = [dict(zip(columns, row)) for row in zip(*(column.tolist() for column in columns.values()))]
    return dict(payload, rows=rows)


@st.composite
def array_payloads(draw):
    """A payload whose rows are float64 and int64 arrays; finite, or not, throughout the table."""
    finite = draw(st.booleans())
    floats = st.floats(allow_nan=not finite, allow_infinity=not finite) | st.sampled_from([0.0, -0.0, 5e-324, 1e16])
    ints = st.integers(-(2**63), 2**63 - 1)
    length = draw(st.integers(0, 7))
    columns = {}
    for key in draw(st.lists(st.text(), unique=True, max_size=4)):
        if draw(st.booleans()):
            columns[key] = np.array(draw(st.lists(floats, min_size=length, max_size=length)), np.float64)
        else:
            columns[key] = np.array(draw(st.lists(ints, min_size=length, max_size=length)), np.int64)
    return {"schema_version": 1, "rows": columns, "footer": {"note": "a\nb", "levels": [0.5, 0.9]}}


class TestArrayTables:
    # the size gate is patched to 0, so that tables of a few cells reach the kernel, and the chunk size to a
    # few rows, so that a table spans several blocks
    @settings(max_examples=300, deadline=None)
    @given(array_payloads(), st.sampled_from([1, 2, 3, 4096]))
    def test_equals_indented_json_dumps_of_their_lists(self, payload, chunk_rows):
        columns = payload["rows"]
        finite = all(np.isfinite(column).all() for column in columns.values())
        with mock.patch.object(cli, "_VECTOR_MIN_CELLS", 0), mock.patch.object(cli, "_VECTOR_CHUNK_ROWS", chunk_rows):
            assert cli._vector_table(columns) == (finite and bool(columns) and len(next(iter(columns.values()))) > 0)
            assert cli._render_json(payload) == json.dumps(as_records(payload), indent=2)

    @pytest.mark.parametrize("gate", [0, 1024])
    def test_non_finite_floats_are_written_by_the_template(self, gate):
        payload = {"rows": {"x": np.array([math.nan, math.inf, -math.inf, -0.0, 0.5]), "n": np.arange(5, dtype=np.int64)}}
        with mock.patch.object(cli, "_VECTOR_MIN_CELLS", gate):
            assert not cli._vector_table(payload["rows"])
            assert cli._render_json(payload) == json.dumps(as_records(payload), indent=2)

    @pytest.mark.parametrize("gate", [0, 1024])
    @pytest.mark.parametrize("column", [np.array([0.5], np.float32), np.array([1], np.int32), np.array([True])])
    def test_refuses_other_dtypes(self, gate, column):
        with mock.patch.object(cli, "_VECTOR_MIN_CELLS", gate), pytest.raises(ValueError):
            cli._render_json({"rows": {"a": column, "b": np.array([0.5])}})

    def test_unequal_array_columns_are_refused(self):
        with mock.patch.object(cli, "_VECTOR_MIN_CELLS", 0), pytest.raises(ValueError):
            cli._render_json({"rows": {"a": np.arange(3), "b": np.zeros(2)}})

    @pytest.mark.parametrize(
        "build, vector",
        [
            (lambda: cli._infer_poisson(RunConfig(), 200), True),
            (lambda: cli._infer_binomial(RunConfig(), 200, 50), True),
            (lambda: cli._family_poisson(RunConfig(), 5000.0), True),
            (lambda: cli._family_poisson(RunConfig(), 30.0), False),
        ],
        ids=["infer-poisson", "infer-binomial", "family-5000", "family-30"],
    )
    def test_command_tables_take_the_path_of_their_size(self, build, vector):
        payload = build()
        assert all(isinstance(column, np.ndarray) for column in payload["rows"].values())
        assert cli._vector_table(payload["rows"]) is vector
        assert cli._render_json(payload) == json.dumps(as_records(payload), indent=2)

    @pytest.mark.parametrize(
        "build",
        [lambda: cli._infer_poisson(RunConfig(), 200), lambda: cli._family_poisson(RunConfig(), 1000.0)],
        ids=["infer", "family"],
    )
    def test_csv_bytes_do_not_depend_on_array_columns(self, build):
        payload = build()
        lists = {key: column.tolist() for key, column in payload["rows"].items()}
        assert cli._render_csv(payload) == cli._render_csv(dict(payload, rows=lists))
