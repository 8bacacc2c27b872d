"""The permutation tables of the orbit-minimum scan, built in numpy for a
block of permutations at once, against the slot-by-slot builder they
replaced and against relabelling the graph a code stands for.

A code's image is ``lo[p, low half] ^ hi[p, high half]``, and every pair
of half codes is some code, so equal tables give the same image for
every code under every permutation.
"""
import itertools
import random

import numpy as np
import pytest

from symprice.digraph import Digraph
from symprice.search import _CodeSpace, _group, _tables

CASES = [(n, False) for n in range(1, 6)] + [(n, True) for n in range(1, 8)]
BLOCK = 256  # permutations per numpy build, to keep n = 7 small


def spread(dest):
    """Table taking each code over len(dest) bits to its bits moved to dest."""
    table = np.zeros(1 << len(dest), dtype=np.int64)
    for b, d in enumerate(dest):
        table[1 << b: 2 << b] = table[: 1 << b] | (1 << d)
    return table


def perm_tables(space, perm):
    """Half-code tables for one permutation, a slot at a time through a
    dict from slot to bit: where each bit goes, with the bits of reversed
    pairs flipped."""
    index = {s: b for b, s in enumerate(space.slots)}
    dest, flip = [], 0
    for u, v in space.slots:
        s = (perm[u], perm[v])
        if s not in index:  # the pair's order reversed
            s = s[::-1]
            flip |= 1 << index[s]
        dest.append(index[s])
    half = len(dest) // 2
    return half, spread(dest[:half]) ^ flip, spread(dest[half:])


def moved(perm):
    return sum(i != x for i, x in enumerate(perm))


def graph_of(space, code):
    """The labelled graph of a code, decoded slot by slot."""
    arrows = []
    for b, (u, v) in enumerate(space.slots):
        if code >> b & 1:
            arrows.append((u, v))
        elif space.oriented:
            arrows.append((v, u))
    return Digraph.from_arrows(space.n, arrows)


def code_of(space, g):
    """The code of a labelled graph; for digraphs its adjacency mask."""
    return sum(1 << b for b, (u, v) in enumerate(space.slots) if g.has_arrow(u, v))


@pytest.mark.parametrize("n", range(1, 8))
def test_group_is_every_other_permutation_by_points_moved(n):
    others = list(itertools.permutations(range(n)))[1:]
    assert _group(n).tolist() == [list(p) for p in sorted(others, key=moved)]


@pytest.mark.parametrize("n,oriented", CASES)
def test_tables_match_slot_by_slot_builder(n, oriented):
    space = _CodeSpace(n, oriented)
    perms = _group(n)
    dest, flip = space.slot_maps(perms)
    for start in range(0, len(perms), BLOCK):
        half, lo, hi = _tables(dest[start:start + BLOCK], flip[start:start + BLOCK])
        for perm, p_lo, p_hi in zip(perms[start:start + BLOCK].tolist(), lo, hi):
            want_half, want_lo, want_hi = perm_tables(space, perm)
            assert half == want_half
            assert np.array_equal(p_lo, want_lo) and np.array_equal(p_hi, want_hi), perm


@pytest.mark.parametrize("n,oriented", [c for c in CASES if c[0] <= 4])
def test_image_is_the_relabelled_graph(n, oriented):
    space = _CodeSpace(n, oriented)
    perms = _group(n)
    half, lo, hi = _tables(*space.slot_maps(perms))
    size = 1 << len(space.slots)
    codes = random.Random(n).sample(range(size), min(size, 64))
    for perm, p_lo, p_hi in zip(perms.tolist(), lo.tolist(), hi.tolist()):
        for code in codes:
            image = p_lo[code & (1 << half) - 1] ^ p_hi[code >> half]
            assert image == code_of(space, graph_of(space, code).relabel(perm)), (perm, code)


@pytest.mark.parametrize("n,oriented", [c for c in CASES if c[0] <= (5 if c[1] else 4)])
def test_every_code_decodes_and_encodes_back(n, oriented):
    # the slot table against the slot-by-slot decoder, over the whole code space
    space = _CodeSpace(n, oriented)
    codes = np.arange(1 << len(space.slots), dtype=np.int64)
    graphs = Digraph.from_stack(space.stack(codes))
    assert [code_of(space, g) for g in graphs] == codes.tolist()
    assert graphs == [graph_of(space, code) for code in codes.tolist()]
