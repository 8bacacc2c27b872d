from fractions import Fraction

import pytest
from hypothesis import given

from symprice import families
from symprice.errors import DomainError, SizeError
from symprice.invariants import (
    DOMINATION_ORDER_CAP,
    average_distance,
    diameter,
    domination_number,
    pos_sigma,
    price,
    transmission,
)

from conftest import digraphs


def test_diameter_values():
    assert diameter(families.complete(5)) == 1
    assert diameter(families.backward_tournament(6)) == 5
    assert diameter(families.cycle(6).symmetric_closure()) == 3


def test_diameter_needs_strong_connectivity():
    with pytest.raises(DomainError):
        diameter(families.path(3))


def test_transmission_cycle():
    # each vertex sees distances 1..n-1
    for n in (3, 5, 8):
        assert transmission(families.cycle(n)) == n * (n - 1) * n // 2


def test_average_distance_exact():
    g = families.cycle(4)
    assert average_distance(g) == Fraction(24, 12) == 2


def test_domination_in_star():
    assert domination_number(families.in_star(5)) == 4
    assert domination_number(families.in_star(5).symmetric_closure()) == 1


def test_domination_cycle():
    assert domination_number(families.cycle(4)) == 2


def test_domination_empty_graph():
    from symprice.digraph import Digraph

    assert domination_number(Digraph.empty(3)) == 3


@given(digraphs(min_n=2, max_n=6))
def test_symmetric_graph_has_zero_price(g):
    c = g.symmetric_closure()
    pr = price(c, "domination")
    assert pr.pos_minus == 0
    assert pr.pos_quot == 1


def test_pos_sigma_cycle():
    assert pos_sigma(families.cycle(4)) == 24 - 16


def test_price_report_json():
    obj = price(families.cycle(4), "transmission").to_json_obj()
    assert obj["value_g"] == {"num": 24, "den": 1}
    assert obj["pos_minus"] == {"num": 8, "den": 1}
    assert obj["pos_quot"] == {"num": 3, "den": 2}


def test_unknown_invariant():
    with pytest.raises(ValueError):
        price(families.cycle(3), "girth")


def test_domination_order_cap():
    # the cap admits every order priced elsewhere (bags to n = 16, the climber's n)
    assert DOMINATION_ORDER_CAP >= 16
    assert domination_number(families.cycle(DOMINATION_ORDER_CAP)) == DOMINATION_ORDER_CAP // 2
    with pytest.raises(SizeError):
        domination_number(families.cycle(DOMINATION_ORDER_CAP + 1))
