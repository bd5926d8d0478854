"""Differential checks of the pruned canonical form and the seeded
isomorphism searches against the plain all-starts / all-images versions."""

import random

import pytest

from etd.catalog import FROZEN_NAMES, STANDARD_NAMES, entry, natural_genus1, q8_reductions
from etd.cmap import (
    CombMap,
    NotConnected,
    _propagate,
    automorphisms,
    canonical_form,
    is_isomorphic,
)
from etd.cover import derived_cover

CATALOG = STANDARD_NAMES + FROZEN_NAMES


def all_starts_canonical(m, labels=None):
    """The canonical form as the minimum of every start's full BFS code."""
    best = None
    for start in range(m.n_darts):
        order = [-1] * m.n_darts
        seq = [start]
        order[start] = 0
        i = 0
        while i < len(seq):
            d = seq[i]
            i += 1
            for nxt in (m.rotation[d], m.edge_pairing[d]):
                if order[nxt] < 0:
                    order[nxt] = len(seq)
                    seq.append(nxt)
        assert len(seq) == m.n_darts
        code = tuple(
            (order[m.rotation[d]], order[m.edge_pairing[d]], labels[d] if labels else None)
            for d in seq
        )
        if best is None or code < best:
            best = code
    return best


def all_images_automorphisms(m, labels=None):
    out = []
    for d2 in range(m.n_darts):
        f = _propagate(m, m, labels, labels, 0, d2)
        if f is not None:
            out.append(f)
    return out


def all_images_isomorphism(m1, m2, labels1=None, labels2=None):
    for d2 in range(m2.n_darts):
        f = _propagate(m1, m2, labels1, labels2, 0, d2)
        if f is not None:
            return f
    return None


def relabeled(m, labels, seed):
    perm = list(range(m.n_darts))
    random.Random(seed).shuffle(perm)
    new_labels = None
    if labels is not None:
        new_labels = [None] * m.n_darts
        for d in range(m.n_darts):
            new_labels[perm[d]] = labels[d]
    return m.relabel(perm), new_labels


def _cases():
    cases = [pytest.param(lambda name=name: entry(name).diagram, id=name) for name in CATALOG]
    cases += [
        pytest.param(lambda m=m: natural_genus1(m).diagram, id="natural_genus1_%d" % m)
        for m in (2, 3, 4)
    ]

    def q8_lift(k):
        base, reds = q8_reductions()
        lift = derived_cover(base.diagram, reds[k][1]).diagram
        assert lift.surface.n_darts == 428
        return lift

    cases += [pytest.param(lambda k=k: q8_lift(k), id="q8_lift_%d" % k) for k in range(3)]
    return cases


@pytest.mark.parametrize("build", _cases())
@pytest.mark.parametrize("labelled", [True, False], ids=["labels", "bare"])
def test_pruned_canonical_matches_all_starts(build, labelled):
    d = build()
    m = d.surface
    labels = d.dart_labels() if labelled else None
    code = canonical_form(m, labels)
    assert code == all_starts_canonical(m, labels)
    if labelled:
        assert code == d.canonical()
    for seed in (1, 2):
        m2, labels2 = relabeled(m, labels, seed)
        assert canonical_form(m2, labels2) == all_starts_canonical(m2, labels2) == code


@pytest.mark.parametrize("name", CATALOG)
def test_seeded_isomorphism_search_matches_all_images(name):
    d = entry(name).diagram
    m = d.surface
    for labels in (d.dart_labels(), None):
        assert automorphisms(m, labels) == all_images_automorphisms(m, labels)
        m2, labels2 = relabeled(m, labels, 7)
        f = is_isomorphic(m, m2, labels, labels2)
        assert f is not None
        assert f == all_images_isomorphism(m, m2, labels, labels2)


def test_canonical_form_rejects_disconnected_maps():
    two_tori = CombMap(8, [2, 3, 0, 1, 6, 7, 4, 5], [1, 2, 3, 0, 5, 6, 7, 4])
    with pytest.raises(NotConnected):
        canonical_form(two_tori)
    with pytest.raises(NotConnected):
        canonical_form(two_tori, list(range(8)))
