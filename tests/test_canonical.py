"""Differential checks of the pruned canonical form and the seeded
isomorphism search against the plain all-starts / all-images versions,
of the automorphism-orbit skip against prefix pruning alone, of the
lazily built best code against a search that builds every best code in
full, and of the automorphism group the canonical form's ties generate
against every automorphism found by trying each image of dart 0."""

import functools
import random

import pytest

from etd.catalog import FROZEN_NAMES, STANDARD_NAMES, _aut_action, entry, natural_genus1, q8_reductions
from etd.cmap import (
    CombMap,
    DisjointSets,
    NotConnected,
    _propagate,
    _search_starts,
    canonical_form,
    canonical_search,
    inverse,
    is_isomorphic,
)
from etd.cover import derived_cover
from etd.diagram import SCAFFOLD, alpha, shadow
from etd.symmetry import GroupClosure, automorphism_group, base_darts
from test_vertex_pass import kind_index

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


def prefix_pruned_canonical(m, labels=None):
    """The canonical form with prefix pruning only: every start runs until
    its code exceeds the best one, so each start of the best code's
    automorphism orbit runs in full."""
    n = m.n_darts
    rot, ep = m.rotation, m.edge_pairing
    lab = labels if labels else [None] * n
    order = [-1] * n
    best = [None] * n
    for start in range(n):
        seq = [start]
        order[start] = 0
        below = start == 0
        i = 0
        while i < len(seq):
            d = seq[i]
            r = rot[d]
            if order[r] < 0:
                order[r] = len(seq)
                seq.append(r)
            e = ep[d]
            if order[e] < 0:
                order[e] = len(seq)
                seq.append(e)
            entry = (order[r], order[e], lab[d])
            if below:
                best[i] = entry
            elif entry != best[i]:
                if entry > best[i]:
                    break
                below = True
                best[i] = entry
            i += 1
        for d in seq:
            order[d] = -1
    return tuple(best)


def eager_search_starts(m, labels=None):
    """The search over start darts with every best code built in full:
    each start that goes below the best code runs to the end.  Returns
    the code and the two BFS orders ``(best_seq, seq)`` of each tie, as
    ``_search_starts`` does."""
    n = m.n_darts
    rot, ep = m.rotation, m.edge_pairing
    lab = labels if labels else [None] * n
    order = [-1] * n
    best = [None] * n
    best_seq = None
    ties = []
    orbits = DisjointSets(n)
    for start in range(n):
        if orbits.find(start) != start:
            continue
        seq = [start]
        order[start] = 0
        below = start == 0
        i = 0
        while i < len(seq):
            d = seq[i]
            r = rot[d]
            if order[r] < 0:
                order[r] = len(seq)
                seq.append(r)
            e = ep[d]
            if order[e] < 0:
                order[e] = len(seq)
                seq.append(e)
            entry = (order[r], order[e], lab[d])
            if below:
                best[i] = entry
            elif entry != best[i]:
                if entry > best[i]:
                    break
                below = True
                best[i] = entry
            i += 1
        else:
            if len(seq) != n:
                raise NotConnected("canonical_form requires a connected map")
            if below:
                best_seq = seq
            else:
                for a, b in zip(best_seq, seq):
                    orbits.union(a, b)
                ties.append((best_seq, seq))
        for d in seq:
            order[d] = -1
    return tuple(best), ties


def all_images_automorphisms(m, labels=None):
    """Every label-preserving automorphism of a connected map, by trying
    each image of dart 0, ascending by that image."""
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


def relabel_map(m, perm):
    """``m`` with dart x renamed perm[x]."""
    inv = inverse(perm)
    return CombMap(m.n_darts, [perm[m.edge_pairing[y]] for y in inv], [perm[m.rotation[y]] for y in inv])


def relabeled(m, labels, seed):
    perm = list(range(m.n_darts))
    random.Random(seed).shuffle(perm)
    new_labels = None
    if labels is not None:
        new_labels = [None] * m.n_darts
        for d in range(m.n_darts):
            new_labels[perm[d]] = labels[d]
    return relabel_map(m, perm), new_labels


def _cases():
    cases = [pytest.param(lambda name=name: entry(name).diagram, id=name) for name in CATALOG]
    cases += [
        pytest.param(lambda m=m: natural_genus1(m).diagram, id="natural_genus1_%d" % m)
        for m in (2, 3, 4, 5, 6)
    ]
    cases += [pytest.param(lambda k=k: q8_lift(k), id="q8_lift_%d" % k) for k in range(3)]
    return cases


@functools.cache
def q8_lift(k):
    """The k-th Q8 lift: 428 darts for k < 3, then 856 and 1712."""
    base, reds = q8_reductions()
    lift = derived_cover(base.diagram, reds[k][1]).diagram
    assert lift.surface.n_darts == (428, 428, 428, 856, 1712)[k]
    return lift


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
        m2, labels2 = relabeled(m, labels, 7)
        f = is_isomorphic(m, m2, labels, labels2)
        assert f is not None
        assert f == all_images_isomorphism(m, m2, labels, labels2)


def tie_closure(m, labels=None):
    """The closure of the canonical form's ties, sorted; the identity
    alone when there are no ties."""
    code, ties = canonical_search(m, labels)
    assert code == canonical_form(m, labels)
    if not ties:
        return [tuple(range(m.n_darts))]
    return sorted(GroupClosure(ties, (0,)).permutations())


@pytest.mark.parametrize(
    "build",
    _cases()[: len(CATALOG)]
    + [pytest.param(lambda m=m: natural_genus1(m).diagram, id="natural_genus1_%d" % m) for m in range(1, 13)]
    + [pytest.param(lambda k=k: q8_lift(k), id="q8_lift_%d" % k) for k in range(5)],
)
@pytest.mark.parametrize("labelled", [True, False], ids=["labels", "bare"])
def test_ties_generate_every_automorphism(build, labelled):
    d = build()
    labels = d.dart_labels() if labelled else None
    want = sorted(tuple(f) for f in all_images_automorphisms(d.surface, labels))
    assert tie_closure(d.surface, labels) == want
    if labelled:
        assert sorted(automorphism_group(d).permutations()) == want


@pytest.mark.parametrize("name", ["q8_link_base", "s4_genus0"])
def test_trivial_automorphism_group_has_no_ties(name):
    d = entry(name).diagram
    n = d.surface.n_darts
    assert all_images_automorphisms(d.surface, d.dart_labels()) == [list(range(n))]
    assert canonical_search(d.surface, d.dart_labels())[1] == []
    assert automorphism_group(d).permutations() == [tuple(range(n))]
    assert _aut_action(d).generators == []


@pytest.mark.parametrize("m", [16, 24, 32])
def test_genus1_automorphisms_are_the_affine_action(m):
    # every color-preserving automorphism of the grid torus is affine: the
    # ties lie in the catalog action, and both groups have order 2m^2
    e = natural_genus1(m)
    d = e.diagram
    ties = canonical_search(d.surface, d.dart_labels())[1]
    action = e.action.closure()
    assert all(action.index(action.key_of(t)) is not None for t in ties)
    assert len(GroupClosure(ties, (0,))) == len(action) == 2 * m * m


def test_canonical_form_rejects_disconnected_maps():
    two_tori = CombMap(8, [2, 3, 0, 1, 6, 7, 4, 5], [1, 2, 3, 0, 5, 6, 7, 4])
    with pytest.raises(NotConnected):
        canonical_form(two_tori)
    with pytest.raises(NotConnected):
        canonical_form(two_tori, list(range(8)))
    with pytest.raises(NotConnected):
        canonical_search(two_tori)


def disjoint_union(m1, m2):
    """m1 on the first darts, m2 shifted past them."""
    k = m1.n_darts
    return CombMap(
        k + m2.n_darts,
        list(m1.edge_pairing) + [k + x for x in m2.edge_pairing],
        list(m1.rotation) + [k + x for x in m2.rotation],
    )


@pytest.mark.parametrize("small_first", [True, False], ids=["small_first", "large_first"])
@pytest.mark.parametrize("labelled", [True, False], ids=["labels", "bare"])
def test_canonical_search_rejects_components_of_different_sizes(small_first, labelled):
    # no start runs in full before the others are compared, so the
    # search must notice a short BFS whichever component start 0 lies in
    torus = CombMap(4, [2, 3, 0, 1], [1, 2, 3, 0])
    grid = natural_genus1(2).diagram.surface
    m = disjoint_union(torus, grid) if small_first else disjoint_union(grid, torus)
    labels = [0] * m.n_darts if labelled else None
    for search in (canonical_form, canonical_search, eager_search_starts):
        with pytest.raises(NotConnected):
            search(m, labels)


class CountingLabels(list):
    """Labels that count their reads: the search reads one label per
    code entry it builds."""

    reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return list.__getitem__(self, k)


def counted_search(search, m, labels):
    """``search(m, labels)`` and the number of code entries it built;
    bare maps get labels that are all None, which give the bare code."""
    counting = CountingLabels(labels if labels is not None else [None] * m.n_darts)
    return search(m, counting), counting.reads


@pytest.mark.parametrize("build", _cases())
@pytest.mark.parametrize("labelled", [True, False], ids=["labels", "bare"])
def test_lazy_best_code_matches_eager_search(build, labelled):
    d = build()
    labels = d.dart_labels() if labelled else None
    maps = [(d.surface, labels)] + [relabeled(d.surface, labels, seed) for seed in (1, 2)]
    for m, lab in maps:
        want, eager_reads = counted_search(eager_search_starts, m, lab)
        got, lazy_reads = counted_search(_search_starts, m, lab)
        # the same code and the same ties, pair by pair and in order
        assert got == want
        assert lazy_reads <= eager_reads
        assert canonical_search(m, lab)[0] == canonical_form(m, lab) == want[0]


@pytest.mark.parametrize("labelled", [True, False], ids=["labels", "bare"])
def test_lazy_best_code_halves_the_entries_on_the_largest_lift(labelled):
    # the starts that lower the best code all do so early, and most are
    # beaten again soon after; only the final best and the best each tie
    # runs against are built to the end (eager: 20,831 entries labelled)
    d = q8_lift(4)
    labels = d.dart_labels() if labelled else None
    want, eager_reads = counted_search(eager_search_starts, d.surface, labels)
    got, lazy_reads = counted_search(_search_starts, d.surface, labels)
    assert got == want
    assert 2 * lazy_reads <= eager_reads, (lazy_reads, eager_reads)


@pytest.mark.parametrize(
    "build",
    [pytest.param(lambda m=m: natural_genus1(m).diagram, id="natural_genus1_%d" % m) for m in range(5, 13)]
    + [pytest.param(lambda k=k: q8_lift(k), id="q8_lift_%d" % k) for k in range(5)],
)
@pytest.mark.parametrize("labelled", [True, False], ids=["labels", "bare"])
def test_orbit_skip_matches_prefix_pruning(build, labelled):
    d = build()
    labels = d.dart_labels() if labelled else None
    code = canonical_form(d.surface, labels)
    assert code == prefix_pruned_canonical(d.surface, labels)
    for seed in (1, 2):
        m2, labels2 = relabeled(d.surface, labels, seed)
        assert canonical_form(m2, labels2) == prefix_pruned_canonical(m2, labels2) == code


def test_large_torus_code_survives_relabelling():
    d = natural_genus1(32).diagram
    labels = d.dart_labels()
    m2, labels2 = relabeled(d.surface, labels, 3)
    assert m2.n_darts == 12288
    assert canonical_form(m2, labels2) == canonical_form(d.surface, labels)


def test_disjoint_set_roots_are_least_elements():
    rng = random.Random(5)
    n = 300
    sets = DisjointSets(n)
    members = {x: {x} for x in range(n)}
    for _ in range(250):
        a, b = rng.randrange(n), rng.randrange(n)
        merged = sets.union(a, b)
        assert merged == (members[a] is not members[b])
        if merged:
            joined = members[a] | members[b]
            for x in joined:
                members[x] = joined
        for x in (a, b, rng.randrange(n)):
            assert sets.find(x) == min(members[x])
    assert all(sets.find(x) == min(members[x]) for x in range(n))


# ---------------------------------------------------------------------------
# the order of the color codes


def named_labels(d):
    """Per-dart ``(kind, index, marked)`` tuples, the colors read by name:
    the labels the byte codes must sort like."""
    m = d.surface
    marked = {m.vertex_of[v.dart] for v in d.marked}
    return [kind_index(c) + (m.vertex_of[x] in marked,) for x, c in enumerate(d.dart_colors)]


ORDER_CASES = [pytest.param(lambda name=name: entry(name).diagram, id=name) for name in CATALOG] + [
    pytest.param(lambda k=k: q8_lift(k), id="q8_lift_%d" % k) for k in range(5)
]


@pytest.mark.parametrize("build", ORDER_CASES)
def test_byte_labels_sort_as_named_labels(build):
    # the canonical search reads only comparisons of labels, so labels
    # that sort alike give the same best start, the same ties and the
    # same automorphism group, element for element
    d = build()
    m = d.surface
    ties = canonical_search(m, named_labels(d))[1]
    assert canonical_search(m, d.dart_labels())[1] == ties
    named = GroupClosure(ties or [tuple(range(m.n_darts))], base_darts(m))
    assert automorphism_group(d).keys == named.keys


def test_scaffold_coded_below_alpha_changes_the_ties():
    # the order test above can fail: ranking scaffold first, as a code
    # below alpha1 would, moves d4_double's best start
    d = entry("d4_double").diagram
    rank = {SCAFFOLD: 0, **{alpha(i): i for i in (1, 2, 3)}, **{shadow(i): 3 + i for i in (1, 2, 3)}}
    scaffold_first = bytes(2 * rank[lab >> 1] + (lab & 1) for lab in d.dart_labels())
    ties = canonical_search(d.surface, named_labels(d))[1]
    assert canonical_search(d.surface, scaffold_first)[1] != ties
