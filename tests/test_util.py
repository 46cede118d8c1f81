"""util.write_csv writes, byte for byte, what csv.writer writes: its
float-row template is checked against the reference writer in
tests/oracles.py on mixed rows of every field type it meets."""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

from oracles import write_csv_reference
from resonance.util import write_csv

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)

# every IEEE double, from its bit pattern: subnormals, +-0, infinities and
# nan payloads included
_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
_EDGES = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                          -2.2250738585072009e-308, 1e300, 0.1])
_FLOATS = st.one_of(_BITS, _EDGES, st.floats())
# strings with and without the characters csv.writer quotes for
_TEXT = st.text(alphabet=st.sampled_from('ab ,"\r\n\t'), max_size=4)
_FIELDS = st.one_of(_FLOATS, _FLOATS.map(np.float64), st.integers(),
                    st.booleans(), _TEXT, st.none())
# a run of rows sharing one field-type sequence, as the program's tables
# do, and rows of any mix
_TABLE = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.tuples(*([_FLOATS] * n)), max_size=8))
_MIXED = st.lists(st.lists(_FIELDS, max_size=6), max_size=8)


def _bytes(writer, header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        writer(path, header, rows)
        return path.read_bytes()


@_SETTINGS
@given(_TABLE, _MIXED)
def test_write_csv_matches_csv_writer_byte_for_byte(table, mixed):
    header = ["k", "x,y", 'say "hi"', ""]
    rows = table + mixed + table
    assert _bytes(write_csv, header, rows) == _bytes(write_csv_reference,
                                                     header, rows)


def test_write_csv_quotes_what_csv_writer_quotes():
    rows = [("a,b", 1.5), ("", ), (None, ), ('q"', -0.0), ("line\n", 2),
            (np.float64(0.1), True, 7, "plain")]
    got = _bytes(write_csv, ["h"], rows)
    assert got == _bytes(write_csv_reference, ["h"], rows)
    assert got.decode().splitlines()[1:] == [
        '"a,b",1.5', '""', '""', '"q""",-0', '"line', '",2',
        "0.10000000000000001,True,7,plain"]
