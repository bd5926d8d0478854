"""The twist solver and the isomorphism walk against reference copies of
the versions they replaced.

``reference_solve_twists`` builds a token word for every face and every
marked vertex and sweeps them all; ``reference_propagate`` walks both
steps of a dart through a loop, with ``used`` a list of booleans.  The
versions in ``etd.cover`` and ``etd.cmap`` must give the same twists (or
the same exception class and message) and the same dart maps (or None)
on every input here.  A work guard bounds the products the twist solver
makes on the 214-dart Q8 base, and the faces it builds words for.
"""

import copy
import functools
import random

import pytest

import etd.cover as cover_mod
from etd.catalog import q8_reductions
from etd.cmap import _propagate, _seed_images
from etd.cover import (
    CoverError,
    MeridianMismatch,
    VoltageAssignment,
    VoltageIncompatible,
    _solve_twists,
    derived_cover,
)
from etd.groups import cyclic, quaternion
from test_canonical import relabeled
from test_cover import edge_voltages, square_torus_diagram, standard_torus_diagram, theta_sphere_diagram

# ---------------------------------------------------------------------------
# reference copies


def reference_solve_twists(d, va):
    g = va.group
    m = d.surface
    marked = {v: m._vertex_orbits[m.vertex_of[v.dart]] for v in d.marked}
    unknowns = set()
    for cyc in marked.values():
        unknowns.update(cyc)
    t = {}

    constraints = []
    for cyc in m._face_orbits:
        word = []
        k = len(cyc)
        word.append(("unk", cyc[0], -1))
        for i in range(k - 1, 0, -1):
            word.append(("const", va.voltage[cyc[i]]))
            word.append(("unk", cyc[i], -1))
        word.append(("const", va.voltage[cyc[0]]))
        constraints.append(word)
    for v in sorted(d.marked):
        cyc = marked[v]
        word = [("unk", c, 1) for c in reversed(cyc)]
        word.append(("const", g.inv(va.meridians[v])))
        constraints.append(word)

    def token_value(tok):
        if tok[0] == "const":
            return tok[1]
        _, dart, s = tok
        if dart not in unknowns:
            return g.identity
        val = t.get(dart)
        if val is None:
            return None
        return val if s == 1 else g.inv(val)

    def unsolved(word):
        return [tok for tok in word if tok[0] == "unk" and tok[1] in unknowns and tok[1] not in t]

    pending = set(unknowns)
    while pending:
        progressed = False
        for word in constraints:
            open_toks = unsolved(word)
            if len(open_toks) != 1:
                continue
            (_, dart, s) = open_toks[0]
            before = g.identity
            after = g.identity
            seen = False
            for tok in word:
                if tok[0] == "unk" and tok[1] == dart and tok[1] not in t:
                    seen = True
                    continue
                val = token_value(tok)
                if seen:
                    after = g.mul(after, val)
                else:
                    before = g.mul(before, val)
            u_s = g.mul(g.inv(before), g.inv(after))
            t[dart] = u_s if s == 1 else g.inv(u_s)
            pending.discard(dart)
            progressed = True
        if not progressed:
            dart = min(pending)
            t[dart] = g.identity
            pending.discard(dart)

    for word in constraints:
        total = g.identity
        for tok in word:
            total = g.mul(total, token_value(tok))
        if total != g.identity:
            if any(tok[0] == "unk" and tok[1] in unknowns for tok in word):
                raise MeridianMismatch("declared meridians are inconsistent with the voltages")
            raise VoltageIncompatible(
                "face with nontrivial holonomy: branching is only allowed "
                "at marked vertices"
            )
    return {x: t.get(x, g.identity) for x in range(m.n_darts)}


def reference_propagate(m1, m2, labels1, labels2, d1, d2):
    f = [-1] * m1.n_darts
    f[d1] = d2
    used = [False] * m2.n_darts
    used[d2] = True
    stack = [d1]
    while stack:
        a = stack.pop()
        b = f[a]
        if labels1[a] != labels2[b]:
            return None
        for pa, pb in ((m1.rotation, m2.rotation), (m1.edge_pairing, m2.edge_pairing)):
            na, nb = pa[a], pb[b]
            if f[na] == -1:
                if used[nb]:
                    return None
                f[na] = nb
                used[nb] = True
                stack.append(na)
            elif f[na] != nb:
                return None
    if -1 in f:
        return None
    return f


# ---------------------------------------------------------------------------
# twists


def _outcome(solve, d, va):
    """The twists, or the exception class and message that stop them."""
    try:
        return solve(d, va)
    except CoverError as err:
        return type(err), str(err)


def _random_voltages(d, g, rng, meridians):
    """Random elements on a few edges, identity elsewhere, and random
    meridians where ``meridians`` is set: mostly inconsistent input."""
    m = d.surface
    picks = {x: rng.choice(g.elements) for x in rng.sample(range(m.n_darts), 3)}
    mer = {v: rng.choice(g.elements) for v in d.marked} if meridians else {}
    return VoltageAssignment(g, edge_voltages(d, g, picks), mer)


@functools.cache
def _q8():
    return q8_reductions()


def _twist_cases():
    base, reds = _q8()
    cases = [("q8:" + label, base.diagram, va) for label, va, _ in reds]
    theta = theta_sphere_diagram()
    first, second = sorted(theta.marked, key=lambda c: c.dart)
    z2, q = cyclic(2), quaternion()
    for label, g, edges, meridians in (
        ("branched", z2, {}, (1, 1)),
        ("twisted", z2, {0: 1}, (1, 1)),
        ("quaternion", q, {}, ("i", "-i")),
        # the meridians multiply to a nontrivial element: no twists exist
        ("inconsistent", z2, {}, (1, 0)),
    ):
        va = VoltageAssignment(g, edge_voltages(theta, g, edges), dict(zip((first, second), meridians)))
        cases.append(("theta:" + label, theta, va))
    torus = standard_torus_diagram()
    z3 = cyclic(3)
    # one nontrivial edge voltage and no marked vertex: its faces have holonomy
    cases.append(("torus:holonomy", torus, VoltageAssignment(z3, edge_voltages(torus, z3, {0: 1}))))
    # quaternion vertex potentials p: dart x gets p(head) p(tail)^-1, so
    # every face's holonomy is trivial in walk order, not in reverse
    m = torus.surface
    pot = [q.elements[(3 * v + 1) % len(q)] for v in range(len(m.vertices()))]
    volt = {
        x: q.mul(pot[m.vertex_of[m.edge_pairing[x]]], q.inv(pot[m.vertex_of[x]]))
        for x in range(m.n_darts)
    }
    cases.append(("torus:gauge", torus, VoltageAssignment(q, volt)))
    # a face without a marked corner fails before any constraint with one
    # (dart 2 lies between two such faces), and the meridians multiply to
    # a nontrivial element
    z2_base = reds[0][1].group
    first_marked = min(base.diagram.marked)
    mer = {v: int(v == first_marked) for v in base.diagram.marked}
    va = VoltageAssignment(z2_base, edge_voltages(base.diagram, z2_base, {2: 1}), mer)
    cases.append(("q8:face_before_meridians", base.diagram, va))
    rng = random.Random(2701)
    for k in range(12):
        label, va, _ = reds[k % len(reds)]
        cases.append(("q8:random%d" % k, base.diagram, _random_voltages(base.diagram, va.group, rng, k % 2)))
    for k in range(6):
        cases.append(("theta:random%d" % k, theta, _random_voltages(theta, q, rng, True)))
    return cases


TWIST_CASES = _twist_cases()


@pytest.mark.parametrize("name, d, va", TWIST_CASES, ids=[c[0] for c in TWIST_CASES])
def test_twists_match_the_reference(name, d, va):
    va = va.validated(d)
    assert _outcome(_solve_twists, d, va) == _outcome(reference_solve_twists, d, va)


def test_twist_cases_reach_every_outcome():
    outcomes = {}
    for name, d, va in TWIST_CASES:
        got = _outcome(_solve_twists, d, va.validated(d))
        outcomes[name] = got[0] if isinstance(got, tuple) else dict
    assert outcomes["theta:inconsistent"] is MeridianMismatch
    assert outcomes["torus:holonomy"] is VoltageIncompatible
    assert outcomes["q8:face_before_meridians"] is VoltageIncompatible
    assert all(outcomes[name] is dict for name, _, _ in TWIST_CASES[:8])
    assert outcomes["torus:gauge"] is dict
    assert set(outcomes.values()) == {dict, MeridianMismatch, VoltageIncompatible}


def _counting(g):
    """A copy of ``g`` whose products are counted in ``calls[0]``."""
    calls = [0]
    inner = g.mul

    def mul(a, b):
        calls[0] += 1
        return inner(a, b)

    counted = copy.copy(g)
    counted.mul = mul
    return counted, calls


def test_twists_take_linear_products_and_build_words_at_marked_corners(monkeypatch):
    base, reds = _q8()
    d = base.diagram
    m = d.surface
    corners = {x for v in d.marked for x in m.orbit(v)}
    assert (m.n_darts, len(corners)) == (214, 26)
    built = []
    word = cover_mod._face_word
    monkeypatch.setattr(cover_mod, "_face_word", lambda cyc, *a: built.append(cyc) or word(cyc, *a))
    for _, va, _ in reds:
        g, calls = _counting(va.group)
        va = VoltageAssignment(g, va.voltage, va.meridians).validated(d)
        built.clear()
        twists = _solve_twists(d, va)
        # every face and vertex constraint is checked once, and each of
        # the 26 twists is solved from one word; the reference makes 678
        assert calls[0] <= m.n_darts + 6 * len(corners), calls[0]
        assert built and all(not corners.isdisjoint(cyc) for cyc in built)
        assert len(built) == sum(not corners.isdisjoint(cyc) for cyc in m._face_orbits)
        assert twists == reference_solve_twists(d, va)


# ---------------------------------------------------------------------------
# the isomorphism walk


@functools.cache
def _lifts():
    base, reds = _q8()
    return [derived_cover(base.diagram, va).diagram for _, va, _ in reds]


@pytest.mark.parametrize("k", range(5))
def test_propagate_matches_the_reference_on_lift_twins(k):
    d = _lifts()[k]
    m, labels = d.surface, d.dart_labels()
    m2, labels2 = relabeled(m, labels, 2700 + k)
    rng = random.Random(k)
    images = _seed_images(m, m2, labels, labels2)
    images += rng.sample(range(m.n_darts), 8)
    found = 0
    for d2 in images:
        for l1, l2 in ((labels, labels2), (bytes(m.n_darts), bytes(m.n_darts))):
            got = _propagate(m, m2, l1, l2, 0, d2)
            assert got == reference_propagate(m, m2, l1, l2, 0, d2)
            found += got is not None
    assert found


def test_propagate_matches_the_reference_across_lifts_and_on_a_disconnected_map():
    lifts = _lifts()
    for a, b in ((0, 1), (0, 2), (1, 2)):  # the three 428-dart lifts
        m1, m2 = lifts[a].surface, lifts[b].surface
        bare = bytes(m1.n_darts)
        for d2 in range(0, m2.n_darts, 7):
            assert _propagate(m1, m2, bare, bare, 0, d2) == reference_propagate(m1, m2, bare, bare, 0, d2)
    torus = square_torus_diagram()
    z2 = cyclic(2)
    va = VoltageAssignment(z2, edge_voltages(torus, z2, {}))  # two sheets, apart
    with pytest.warns(cover_mod.DisconnectedCoverWarning):
        m = derived_cover(torus, va).diagram.surface
    # the connected unbranched double cover maps onto either sheet of the
    # two apart, two darts to one: the walk must reject the repeated image
    m1 = derived_cover(torus, VoltageAssignment(z2, edge_voltages(torus, z2, {0: 1}))).diagram.surface
    assert m1.is_connected() and m1.n_darts == m.n_darts
    bare = bytes(m.n_darts)
    for d2 in range(m.n_darts):
        for a in (m, m1):
            assert _propagate(a, m, bare, bare, 0, d2) is None
            assert reference_propagate(a, m, bare, bare, 0, d2) is None
