"""The one payload writer: the bytes of ``OutputSink.write_csv`` and the
refusal of non-finite numbers that it shares with ``write_json``."""

import hashlib
import math

import numpy as np
import pytest

from randschrod.hamiltonian import NumericalFailure
from randschrod.runner import OutputSink


def _sink(tmp_path):
    return OutputSink(tmp_path, {"config": "abc123", "kind": "ids", "version": "0.1.0"})


def test_csv_cells_metadata_and_notes(tmp_path):
    sink = _sink(tmp_path)
    rows = [(3, np.int64(-7), 0.1, np.float64(1.0) / 3.0), (0, np.int64(2**40), 2.0, np.float32(0.1))]
    sink.write_csv("t.csv", ("i", "j", "x", "y"), rows,
                   notes={"reference_half_width": 8, "reference_value": np.float64(0.25)})
    text = (tmp_path / "t.csv").read_text(encoding="ascii")
    assert text == (
        "# config=abc123\n"
        "# kind=ids\n"
        "# version=0.1.0\n"
        "# reference_half_width=8\n"
        "# reference_value=0.25\n"
        "i,j,x,y\n"
        "3,-7,0.1,0.3333333333333333\n"
        "0,1099511627776,2.0,0.10000000149011612\n"
    )
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert sink.payloads == {"t.csv": {"path": "t.csv", "sha256": digest}}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name,write,field", [
    ("fit.json", lambda sink, v: sink.write_json("fit.json", {"fit": {"exponent": v}}),
     "fit.exponent"),
    ("hs.json", lambda sink, v: sink.write_json("hs.json", {"errors": [1e-7, v]}),
     "errors[1]"),
    ("arr.json", lambda sink, v: sink.write_json("arr.json", {"suprema": np.array([0.5, v])}),
     "suprema"),
    ("ids.csv", lambda sink, v: sink.write_csv("ids.csv", ("E", "N"), [(0.0, 0.1), (1.0, v)]),
     "column N"),
    ("decay.csv", lambda sink, v: sink.write_csv("decay.csv", ("l",), [(1,)],
                                                 {"reference_value": np.float64(v)}),
     "reference_value"),
], ids=["json-dict", "json-list", "json-array", "csv-column", "csv-note"])
def test_a_non_finite_number_is_refused_before_the_file_is_opened(
    tmp_path, value, name, write, field
):
    sink = _sink(tmp_path)
    with pytest.raises(NumericalFailure) as info:
        write(sink, value)
    assert str(info.value) == f"{name}: {field} is not finite"
    assert not (tmp_path / name).exists()
    assert sink.payloads == {}
