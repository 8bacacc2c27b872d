import math

import numpy as np
import pytest

from symprice import families, formulas
from symprice.digraph import ISO_ORDER_CAP, ORDER_CAP, Digraph, adjacency_stack, are_isomorphic, canonical_form
from symprice.errors import DomainError, SizeError
from symprice.families import BagSpec, bag, canonical_bag
from symprice.invariants import pos_sigma, price_arrays, transmission
from symprice.search import _warm_starts, enumerate_tournaments


def test_cycle_path_complete_instar():
    assert list(families.cycle(3).arrows()) == [(0, 1), (1, 2), (2, 0)]
    assert families.path(4).arrow_count() == 3
    assert families.complete(3).arrow_count() == 6
    g = families.in_star(5)
    assert g.arrow_count() == 4
    assert all(v == 0 for _, v in g.arrows())


def test_specs_up_to_the_order_cap_are_built():
    assert families.build_family(f"path:{ORDER_CAP}").n == ORDER_CAP
    for spec in (f"path:{ORDER_CAP + 1}", f"bag:{ORDER_CAP + 1}:5"):
        with pytest.raises(SizeError):
            families.build_family(spec)
    with pytest.raises(SizeError):
        families.check_closed_forms([f"cycle:{ORDER_CAP + 1}"])


def test_backward_tournament_shape():
    g = families.backward_tournament(5)
    assert families.is_tournament(g)
    assert g.is_strongly_connected()
    # distance 1->n along the path only
    from symprice.distances import all_pairs_distances

    assert all_pairs_distances(g)[0, 4] == 4


def test_backward_tournament_3_is_cycle():
    assert are_isomorphic(families.backward_tournament(3), families.cycle(3))


def test_b_family_contains_base_and_dedupes():
    fam = families.b_family(4)
    base = canonical_form(families.backward_tournament(4))
    assert base in {canonical_form(g) for g in fam}
    assert len({canonical_form(g) for g in fam}) == len(fam)


def test_b_family_reaches_the_canonical_form_cap(monkeypatch):
    # the 2^(n-1) graphs at n = 9 are 256 classes; above ISO_ORDER_CAP none
    # of them could get a canonical form, so none is built
    assert len(families.b_family(9)) == 256
    built, post_init = [], Digraph.__post_init__
    monkeypatch.setattr(Digraph, "__post_init__", lambda self: built.append(self) or post_init(self))
    with pytest.raises(SizeError, match=f"up to n={ISO_ORDER_CAP}, got {ISO_ORDER_CAP + 1}"):
        families.b_family(ISO_ORDER_CAP + 1)
    assert built == []


def test_l_set_includes_original():
    g = families.in_star(4)
    ls = families.l_set(g, 1)
    forms = {canonical_form(h) for h in ls}
    assert canonical_form(g) in forms
    assert len(forms) == len(ls)
    # k=0 is just the graph itself
    assert len(families.l_set(g, 0)) == 1


def test_bag_spec_validation():
    t = families.backward_tournament(3)
    with pytest.raises(ValueError):
        BagSpec(n=8, k=2, tournament=t, dup_arrow=(0, 1))
    with pytest.raises(ValueError):
        BagSpec(n=8, k=3, tournament=families.cycle(3).add_arrow(0, 2),
                dup_arrow=(0, 1))
    with pytest.raises(ValueError):
        BagSpec(n=8, k=3, tournament=t, dup_arrow=(1, 0))


def test_bag_structure():
    spec = BagSpec(n=7, k=4, tournament=families.backward_tournament(4),
                   dup_arrow=(3, 0))
    g = bag(spec)
    assert g.n == 7
    assert g.is_strongly_connected()
    assert spec.path_len == 4
    # duplicated arrow still present, path 3 -> 4 -> 5 -> 6 -> 0 added
    assert g.has_arrow(3, 0) and g.has_arrow(3, 4) and g.has_arrow(6, 0)


def test_canonical_bag_rows_match_the_general_bag():
    for n in range(4, 41):
        for k in range(3, n):
            spec = BagSpec(n, k, families.backward_tournament(k), (k - 1, 0))
            assert canonical_bag(n, k) == bag(spec), (n, k)


def test_canonical_bag_transmission_matches_closed_form():
    from symprice import formulas

    for n, k in ((8, 4), (9, 4), (12, 5)):
        g = canonical_bag(n, k)
        assert transmission(g) == formulas.sigma_hnk(n, k)
        assert transmission(g.symmetric_closure()) == formulas.sigma_hnk_sym(n, k)


@pytest.mark.parametrize("n, strong", [(4, 3), (5, 9), (6, 69), (7, 594), (8, 8007),
                                       pytest.param(9, 176231, marks=pytest.mark.slow)])
def test_canonical_bags_maximise_the_price_over_every_bag(n, strong):
    # the bag theorem, exhaustively: over every tournament class T of order
    # 3 <= k < n and every arrow of T to duplicate, the strongly connected
    # bags' largest pos_sigma is best_bag_pos's, reached only by canonical bags
    bags = [(t, arrow, g) for k in range(3, n) for t in enumerate_tournaments(k, strongly_connected=False)
            for arrow in t.arrows() for g in (bag(BagSpec(n, k, t, arrow)),) if g.is_strongly_connected()]
    assert len(bags) == strong
    sigma, sigma_sym = price_arrays(adjacency_stack((g.rows for *_, g in bags), n), "transmission")
    pos = sigma - sigma_sym
    best = formulas.best_bag_pos(n)[1]
    t, arrow, _ = bags[int(pos.argmax())]
    assert pos.max() == best, f"pos {pos.max()} over T rows {t.rows}, arrow {arrow}"
    canonical = [canonical_bag(n, k) for k in range(3, n) if formulas.pos_hnk(n, k) == best]
    for i in np.flatnonzero(pos == best):
        t, arrow, g = bags[i]
        assert pos_sigma(g) == best, f"T rows {t.rows}, arrow {arrow}"
        assert any(are_isomorphic(g, c) for c in canonical), f"T rows {t.rows}, arrow {arrow}"


def test_r_value_linear_form():
    # r(n) ~ 0.4142 n + 0.2218
    assert math.isclose(families.r_value(20), 0.41421356 * 20 + 0.22182541,
                        abs_tol=1e-6)


def test_k_star_basic():
    r = families.k_star(11)
    assert r.candidates == (4, 5)
    assert r.k_star == 4
    assert r.pos_at_candidates[4] > r.pos_at_candidates[5]
    with pytest.raises(DomainError):
        families.k_star(10)


@pytest.mark.parametrize("n", [10**17, 10**30])
def test_k_star_candidates_exact_at_large_n(n):
    # r = (2n-11)/sqrt(2) - n + 8; its floor m - n + 8 satisfies
    # 2 m^2 <= (2n-11)^2 < 2 (m+1)^2.  Double precision misses it here.
    r = families.k_star(n)
    lo, hi = r.candidates
    m = lo + n - 8
    assert 2 * m * m <= (2 * n - 11) ** 2 < 2 * (m + 1) ** 2
    assert hi == lo + 1
    assert r.k_star in r.candidates


def test_build_family_specs():
    assert families.build_family("cycle:5") == families.cycle(5)
    assert families.build_family("bag:8:4") == canonical_bag(8, 4)
    for bad in ("wat:3", "cycle:x", "bag:8", "cycle"):
        with pytest.raises(ValueError):
            families.build_family(bad)


def test_every_family_spec_builds():
    assert families.FAMILY_SPECS == ("cycle:n", "path:n", "complete:n", "instar:n",
                                     "backward:n", "bag:n:k")
    values = {"n": 6, "k": 4}
    for form in families.FAMILY_SPECS:
        name, *params = form.split(":")
        nums = [values[p] for p in params]
        spec = families.family_spec(name, *nums)
        assert families.build_family(spec) == families.FAMILIES[name](*nums)


@pytest.mark.parametrize("objective", ["sigma", "diameter"])
def test_warm_starts_are_built_from_their_specs(objective):
    starts = _warm_starts(9, objective)
    assert [s for s, _ in starts[:2]] == ["cycle:9", "backward:9"]
    assert len(starts) == (2 + 6 if objective == "sigma" else 2)
    for spec, g in starts:
        assert g == families.build_family(spec)


def test_check_closed_form():
    c, d = families.check_closed_forms(["cycle:6", "bag:12:5"])
    assert (c.n, c.k, c.parity) == (6, None, "even")
    assert c.forms == c.bfs == (90, 54) and c.ok
    assert (d.n, d.k, d.parity) == (12, 5, "odd") and d.ok
    assert d.forms == (formulas.sigma_hnk(12, 5), formulas.sigma_hnk_sym(12, 5))
    with pytest.raises(ValueError):
        families.check_closed_forms(["cycle:6", "backward:6"])


def test_check_closed_form_every_small_bag():
    # every bag from n = 4, the smallest order best_bag_pos and the crossover table reach
    specs = [families.family_spec("bag", n, k) for n in range(4, 11) for k in range(3, n)]
    checks = families.check_closed_forms(specs)
    assert len(checks) == 28 and all(c.ok for c in checks)


def test_check_closed_form_reports_a_mismatch(monkeypatch):
    monkeypatch.setattr(formulas, "sigma_hnk", lambda n, k: -1)
    c, d = families.check_closed_forms(["bag:12:5", "cycle:12"])
    assert c.forms[0] == -1 and c.bfs[0] == transmission(canonical_bag(12, 5))
    assert not c.ok and d.ok


def test_check_closed_forms_keeps_input_order_over_mixed_orders():
    # orders interleaved, with 70 over two words per row
    specs = ["bag:13:4", "cycle:5", "bag:70:20", "cycle:13", "bag:11:3", "cycle:70", "bag:13:7"]
    checks = families.check_closed_forms(specs)
    assert [(c.n, c.k) for c in checks] == [(13, 4), (5, None), (70, 20), (13, None),
                                            (11, 3), (70, None), (13, 7)]
    for spec, c in zip(specs, checks):
        g = families.build_family(spec)
        assert c.bfs == (transmission(g), transmission(g.symmetric_closure())), spec
        assert c.ok, spec
    assert families.check_closed_forms([]) == []


def test_best_known():
    for n in range(2, 31):
        expected = (formulas.pos_cycle(n) if n <= 10
                    else formulas.pos_hnk(n, families.k_star(n).k_star))
        assert families.best_known(n) == expected, n
