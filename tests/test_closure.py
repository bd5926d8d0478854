"""The base-dart group closure against a reference closure over full
dart permutations."""

import warnings
from math import gcd

import pytest

from etd import symmetry
from etd.catalog import (
    FROZEN_NAMES,
    STANDARD_NAMES,
    _aut_action,
    entry,
    natural_genus1,
    q8_reductions,
)
from etd.cmap import CombMap, NotConnected, compose, inverse
from etd.cover import derived_cover, reduce_voltages
from etd.diagram import ShadowDiagram
from etd.groups import cyclic, greedy_generators, hom_from_generator_images
from etd.symmetry import (
    ClosureCapExceeded,
    DiagramAction,
    ElementFixedData,
    FixedCell,
    SingularReport,
    SymmetryError,
    automorphism_group,
    check_action,
    is_equivalent_action,
    singular_locus,
)
from test_canonical import all_images_automorphisms


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
    m2 = CombMap(
        2 * n,
        m.edge_pairing + tuple(x + n for x in m.edge_pairing),
        m.rotation + tuple(x + n for x in m.rotation),
    )
    marked = [v.dart + k for v in d.marked for k in (0, n)]
    gens = [g + shift for g in a.generators]
    gens += [tuple(range(n)) + tuple(x + n for x in g) for g in a.generators]
    d2 = ShadowDiagram.from_darts(m2, d.dart_colors * 2, marked)
    return d2, DiagramAction(gens, None, (0, n))


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
    assert len(check_action(d, a)) == len(ref)
    assert a.closure().orders() == [reference_order(p) for p in ref]


@pytest.mark.parametrize("name, d, a", CASES, ids=[c[0] for c in CASES])
def test_closure_cap_matches_reference(name, d, a, monkeypatch):
    order = len(a.closure())
    for cap in (order - 1, order):
        monkeypatch.setattr(symmetry, "CLOSURE_CAP", cap)
        try:
            reference_closure(a.generators, cap)
            ref_raises = False
        except ClosureCapExceeded:
            ref_raises = True
        assert ref_raises == (cap < order and order > 1)
        if ref_raises:
            with pytest.raises(ClosureCapExceeded, match="closure exceeds %d elements" % cap):
                a.elements()
            with pytest.raises(ClosureCapExceeded):
                check_action(d, a)
        else:
            assert len(a.elements()) == order


def test_base_must_meet_every_component():
    label, d, a, k = DECKS[-1]
    assert k == 2 and len(a.base) == 2
    one_base = DiagramAction(a.generators, a.names)
    with pytest.raises(SymmetryError):
        check_action(d, one_base)


# Test-only copies of the full-permutation action queries that the
# orbit-tree versions replaced: every element is a dart permutation and
# every query scans all of them.


def ref_orbits(m, a, cells):
    elems = reference_closure(a.generators, 10**6)
    cells = list(cells)
    seen = set()
    out = []
    for c in cells:
        if c in seen:
            continue
        orb = {m.cell_of(c.kind, e[c.dart]) for e in elems}
        assert orb <= set(cells)
        seen |= orb
        out.append(frozenset(orb))
    for orb in out:
        for c in orb:
            stab = [e for e in elems if m.cell_of(c.kind, e[c.dart]) == c]
            assert len(orb) * len(stab) == len(elems)
    return out


def ref_stabilizer(m, a, cell):
    elems = reference_closure(a.generators, 10**6)
    return [e for e in elems if m.cell_of(cell.kind, e[cell.dart]) == cell]


def ref_cycle_shift_order(cycle, perm):
    n = len(cycle)
    s = cycle.index(perm[cycle[0]])
    return n // gcd(n, s) if s else 1


def ref_singular_locus(d, a):
    m = d.surface
    g = m.genus() if m.is_connected() else None
    per = []
    hyper = []
    for e in reference_closure(a.generators, 10**6)[1:]:
        key = tuple(e[x] for x in a.base)
        data = ElementFixedData(key, reference_order(e))
        for v in m.vertices():
            if m.cell_of(v.kind, e[v.dart]) == v:
                lo = ref_cycle_shift_order(m.orbit(v), e)
                if lo > 1:
                    data.fixed_vertices.append(FixedCell(v, lo))
        for f in m.faces():
            if m.cell_of(f.kind, e[f.dart]) == f:
                lo = ref_cycle_shift_order(m.orbit(f), e)
                if lo > 1:
                    data.fixed_faces.append(FixedCell(f, lo))
        for c in m.edges():
            if e[c.dart] == m.edge_pairing[c.dart]:
                data.inverted_edges.append(FixedCell(c, 2))
        per.append(data)
        if g is not None and data.order == 2 and data.n_fixed_points == 2 * g + 2:
            hyper.append(key)
    return SingularReport(per, hyper, g)


def ref_is_equivalent_action(d, a, b, up_to_group_automorphism):
    ea = set(reference_closure(a.generators, 10**6))
    eb = set(reference_closure(b.generators, 10**6))
    if len(ea) != len(eb):
        return False
    if not d.surface.is_connected():
        raise NotConnected("automorphisms requires a connected map")
    for phi in all_images_automorphisms(d.surface, d.dart_labels()):
        phi = tuple(phi)
        phi_inv = inverse(phi)
        if up_to_group_automorphism:
            if {compose(phi, compose(e, phi_inv)) for e in ea} == eb:
                return True
        elif len(a.generators) == len(b.generators) and all(
            compose(phi, compose(g, phi_inv)) == h
            for g, h in zip(a.generators, b.generators)
        ):
            return True
    return False


def _outcome(f, *args):
    try:
        return f(*args)
    except NotConnected as err:
        return err.__class__


@pytest.mark.parametrize("name, d, a", CASES, ids=[c[0] for c in CASES])
def test_orbits_and_stabilizers_match_reference(name, d, a):
    # the orbits and stabilizers read off the closure's one-dart images,
    # as singular_locus reads them, against the full permutations
    m = d.surface
    closure = a.closure()
    elems = a.elements()
    for cells in (m.vertices(), m.edges(), m.faces()):
        parts = []
        for cell in cells:
            if any(cell in orb for orb in parts):
                continue
            images = [m.cell_of(cell.kind, y) for y in closure.images(cell.dart)]
            parts.append(frozenset(images))
            stab = [e for e, c in zip(elems, images) if c == cell]
            assert stab == ref_stabilizer(m, a, cell)
        assert parts == ref_orbits(m, a, cells)


@pytest.mark.parametrize("name, d, a", CASES, ids=[c[0] for c in CASES])
def test_singular_locus_matches_reference(name, d, a):
    got = singular_locus(d, a)
    want = ref_singular_locus(d, a)
    assert repr(got.per_element) == repr(want.per_element)
    assert got.hyperelliptic_involutions == want.hyperelliptic_involutions
    assert got.genus == want.genus


@pytest.mark.parametrize(
    "name, d, a",
    [c for c in CASES if not c[1].surface.is_connected()],
    ids=[c[0] for c in CASES if not c[1].surface.is_connected()],
)
def test_singular_locus_on_a_disconnected_surface(name, d, a):
    rep = singular_locus(d, a)
    assert rep.genus is None
    assert rep.hyperelliptic_involutions == []
    assert len(rep.per_element) == len(a.elements()) - 1


@pytest.mark.parametrize("name, d, a", CASES, ids=[c[0] for c in CASES])
def test_is_equivalent_action_matches_reference(name, d, a):
    # one-generator actions, and on the smaller maps two-generator ones
    # in both orders (they tell all from any, and order from set)
    gens = a.generators
    acts = [DiagramAction([g], None, a.base) for g in gens]
    if d.surface.n_darts <= 200:
        acts += [DiagramAction([g, h], None, a.base) for g in gens for h in gens if g != h]
    for x in acts:
        for y in acts:
            for flag in (True, False):
                assert _outcome(is_equivalent_action, d, x, y, flag) == _outcome(
                    ref_is_equivalent_action, d, x, y, flag
                )


def ref_aut_generators(d):
    """The greedy generators of Aut taken over all its elements as full
    permutations, ascending: the selection the key-based one replaced."""
    auts = sorted(automorphism_group(d).permutations())
    return greedy_generators(auts, tuple(range(d.surface.n_darts)), compose)


AUT_CASES = [(n, lambda n=n: entry(n).diagram) for n in STANDARD_NAMES + FROZEN_NAMES]
AUT_CASES += [("natural_genus1(%d)" % m, lambda m=m: natural_genus1(m).diagram) for m in range(4, 17)]


@pytest.mark.parametrize("name, build", AUT_CASES, ids=[c[0] for c in AUT_CASES])
def test_aut_generators_match_the_all_permutations_selection(name, build):
    d = build()
    assert _aut_action(d).generators == ref_aut_generators(d)
