"""The shared CSV writer: one cell format, columns from row dataclasses."""
from dataclasses import dataclass

import numpy as np

from aavtraj.csvio import columns, write_csv


def test_cell_format_exact_bytes(tmp_path):
    p = tmp_path / "t.csv"
    row = [None, True, False, 7, 0.1, np.float64(2.5) / 3.0, [3, 14, 0]]
    write_csv(str(p), ("none", "yes", "no", "int", "float", "np", "list"), [row])
    assert p.read_bytes() == (
        b"none,yes,no,int,float,np,list\r\n"
        b",true,false,7,0.1,0.8333333333333334,3;14;0\r\n"
    )


def test_columns_follow_field_order():
    @dataclass
    class Row:
        b: int
        a: float
        c: str = ""

    assert columns(Row) == ("b", "a", "c")
