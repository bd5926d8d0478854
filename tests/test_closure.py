"""The base-dart group closure against a reference closure over full
dart permutations."""

import warnings

import pytest

from etd.catalog import FROZEN_NAMES, STANDARD_NAMES, entry, natural_genus1, q8_reductions
from etd.cmap import build_map
from etd.cover import derived_cover, reduce_voltages
from etd.diagram import ShadowDiagram
from etd.groups import cyclic, hom_from_generator_images
from etd.symmetry import (
    ClosureCapExceeded,
    DiagramAction,
    SymmetryError,
    _structure_hint,
    check_action,
    compose,
)


def reference_closure(gens, cap):
    """Breadth-first closure over full permutation tuples."""
    n = len(gens[0]) if gens else 0
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    out = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = compose(g, e)
                if h not in seen:
                    seen.add(h)
                    out.append(h)
                    nxt.append(h)
                    if len(seen) > cap:
                        raise ClosureCapExceeded("closure exceeds %d elements" % cap)
        frontier = nxt
    return out


def reference_order(p):
    ident = tuple(range(len(p)))
    q, k = p, 1
    while q != ident:
        q = compose(p, q)
        k += 1
    return k


def two_copies(d, a):
    """The disjoint union of two copies of the diagram, with the action
    on each copy alone: elements fix a whole component."""
    m = d.surface
    n = m.n_darts
    shift = tuple(range(n, 2 * n))
    m2 = build_map(
        2 * n,
        m.edge_pairing + tuple(x + n for x in m.edge_pairing),
        m.rotation + tuple(x + n for x in m.rotation),
    )
    color = {}
    for e, c in d.color.items():
        color[m2.cell_of("edge", e.dart)] = c
        color[m2.cell_of("edge", e.dart + n)] = c
    marked = {m2.cell_of("vertex", v.dart + k) for v in d.marked for k in (0, n)}
    gens = [g + shift for g in a.generators]
    gens += [tuple(range(n)) + tuple(x + n for x in g) for g in a.generators]
    return ShadowDiagram(m2, color, marked), DiagramAction(gens, None, (0, n))


def catalog_cases():
    for name in STANDARD_NAMES + FROZEN_NAMES:
        e = entry(name)
        if e.action is not None:
            yield name, e.diagram, e.action
    for m in range(2, 7):
        e = natural_genus1(m)
        yield "natural_genus1(%d)" % m, e.diagram, e.action
    e = natural_genus1(2)
    yield ("natural_genus1(2) twice",) + two_copies(e.diagram, e.action)


def deck_cases():
    base_entry, reds = q8_reductions()
    base = base_entry.diagram
    # trivial voltages: a two-sheeted cover with two components
    va = base_entry.voltages
    trivial = hom_from_generator_images(va.group, cyclic(2), {"i": 0, "j": 0})
    reds = reds + [("disconnected", reduce_voltages(va, cyclic(2), trivial), None)]
    for label, va, _ in reds:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = derived_cover(base, va)
        yield label, res.diagram, res.deck, res.n_components


DECKS = list(deck_cases())
CASES = list(catalog_cases()) + [(label, d, a) for label, d, a, _ in DECKS]


@pytest.mark.parametrize("name, d, a", CASES, ids=[c[0] for c in CASES])
def test_closure_matches_reference(name, d, a):
    ref = reference_closure(a.generators, 10**6)
    assert a.elements() == ref
    orders = {}
    for p in ref[1:]:
        o = reference_order(p)
        orders[o] = orders.get(o, 0) + 1
    rep = check_action(d, a)
    assert rep.order == len(ref)
    assert rep.element_orders == orders
    assert rep.structure_hint == _structure_hint(len(ref), orders)
    assert a.closure().orders() == [reference_order(p) for p in ref]


@pytest.mark.parametrize("name, d, a", CASES, ids=[c[0] for c in CASES])
def test_closure_cap_matches_reference(name, d, a):
    order = a.order()
    for cap in (order - 1, order):
        try:
            reference_closure(a.generators, cap)
            ref_raises = False
        except ClosureCapExceeded:
            ref_raises = True
        assert ref_raises == (cap < order and order > 1)
        if ref_raises:
            with pytest.raises(ClosureCapExceeded):
                a.elements(cap)
            with pytest.raises(ClosureCapExceeded):
                check_action(d, a, cap)
        else:
            assert len(a.elements(cap)) == order


def test_base_must_meet_every_component():
    label, d, a, k = DECKS[-1]
    assert k == 2 and len(a.base) == 2
    one_base = DiagramAction(a.generators, a.names)
    with pytest.raises(SymmetryError):
        check_action(d, one_base)
