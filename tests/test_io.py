import json
import warnings

import pytest
from hypothesis import given

from symprice import io
from symprice.digraph import ORDER_CAP, Digraph
from symprice.errors import FormatError, SizeError

from conftest import digraphs


def test_from_text_cycle():
    g = io.from_text("n 3\n0 1\n1 2\n2 0\n")
    assert g == Digraph.from_arrows(3, [(0, 1), (1, 2), (2, 0)])


def test_comments_and_blank_lines():
    g = io.from_text("# header\nn 2\n\n0 1  # forward\n")
    assert list(g.arrows()) == [(0, 1)]


@given(digraphs())
def test_text_roundtrip(g):
    assert io.from_text(io.to_text(g)) == g


@given(digraphs())
def test_json_roundtrip(g):
    assert io.from_json_obj(json.loads(json.dumps(io.to_json_obj(g)))) == g


def test_orders_up_to_the_order_cap_are_read():
    assert io.from_text(f"n {ORDER_CAP}\n").n == ORDER_CAP
    assert io.from_json_obj({"n": ORDER_CAP, "arrows": []}).n == ORDER_CAP
    with pytest.raises(SizeError):
        io.from_text(f"n {ORDER_CAP + 1}\n")
    with pytest.raises(SizeError):
        io.from_json_obj({"n": ORDER_CAP + 1, "arrows": []})


def test_loop_line_named():
    with pytest.raises(FormatError) as e:
        io.from_text("n 3\n0 1\n1 1\n")
    assert e.value.line == 3


def test_out_of_range_named():
    with pytest.raises(FormatError) as e:
        io.from_text("n 2\n0 5\n")
    assert e.value.line == 2


def test_garbage_line():
    with pytest.raises(FormatError):
        io.from_text("n 2\nzero one\n")


def test_missing_header():
    with pytest.raises(FormatError):
        io.from_text("0 1\n")


def test_duplicate_arrow_warns_and_dedupes():
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        g = io.from_text("n 2\n0 1\n0 1\n")
    assert g.arrow_count() == 1
    assert any("duplicate" in str(x.message) for x in w)


@pytest.mark.parametrize("obj", [
    {"n": 3.7, "arrows": [[0.9, 1.2], [1, 2], [2, 0]]},
    {"n": 3.0, "arrows": [[0, 1], [1, 2], [2, 0]]},
    {"n": 3, "arrows": [[0, 1.0], [1, 2], [2, 0]]},
    {"n": True, "arrows": []},
    {"n": 3, "arrows": [[0, 1], [True, 2], [2, 0]]},
    {"n": "3", "arrows": [[0, 1], [1, 2], [2, 0]]},
    {"n": 3, "arrows": [[0, "1"], [1, 2], [2, 0]]},
], ids=["float-everywhere", "float-order", "float-endpoint", "bool-order",
        "bool-endpoint", "string-order", "string-endpoint"])
def test_json_numbers_must_be_integers(obj):
    with pytest.raises(FormatError, match="expected an integer"):
        io.from_json_obj(obj)


def test_file_roundtrip_text_and_json(tmp_path):
    g = Digraph.from_arrows(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    t = tmp_path / "g.txt"
    j = tmp_path / "g.json"
    io.write_graph_file(g, t)
    io.write_graph_file(g, j)
    assert io.parse_graph_file(t) == g
    assert io.parse_graph_file(j) == g
