from importlib import resources

import pytest

from etd.catalog import (
    FROZEN_NAMES,
    STANDARD_NAMES,
    NonStandardSlopes,
    UnknownName,
    entry,
    entry_file_text,
    genus2_strongly_minimal,
    mirror,
    natural_genus1,
    q8_link_base,
    q8_reductions,
    standard,
)
from etd.cover import derived_cover, expected_lift_parameters
from etd.diagio import parse_diagram_file
from etd.diagram import ShadowDiagram, alpha, validate_shadow, validate_trisection
from etd.invariants import h1_mod_curves
from etd.quotient import quotient, quotient_is_trisection
from etd.symmetry import check_action


def frozen_text(filename):
    """The checked-in copy of a file in ``etd.data``."""
    return (resources.files("etd.data") / filename).read_text()


def recolored(d, swap):
    """Apply a permutation {i: j} to the alpha families."""
    alphas = {alpha(i): alpha(swap.get(i, i)) for i in (1, 2, 3)}
    colors = [alphas.get(c, c) for c in d.dart_colors]
    return ShadowDiagram.from_darts(d.surface, colors, [v.dart for v in d.marked])


@pytest.mark.parametrize("name", STANDARD_NAMES)
def test_standard_entries_validate_as_expected(name):
    e = standard(name)
    rep = validate_trisection(e.diagram)
    assert rep.ok, rep.summary()
    assert rep.genus == e.expected.genus
    assert rep.k == e.expected.k
    assert rep.chi_x == e.expected.chi_x
    if e.expected.h1 is not None:
        assert h1_mod_curves(e.diagram, (1, 2, 3)) == e.expected.h1
    if e.expected.p:
        sv = rep.shadow_verdict
        assert (sv.b, sv.p) == (e.expected.b, e.expected.p)
    if e.action is not None and e.expected.action_order is not None:
        assert len(check_action(e.diagram, e.action)) == e.expected.action_order


def test_cp2_and_mirror_differ_as_ordered_triples():
    a = standard("cp2").diagram
    b = standard("cp2bar").diagram
    assert a.canonical() != b.canonical()


def test_cp2_mirror_agrees_after_transposing_two_families():
    a = standard("cp2").diagram
    b = standard("cp2bar").diagram
    swapped = recolored(b, {1: 2, 2: 1})
    assert a.canonical() == swapped.canonical()


def test_mirror_is_an_involution():
    d = standard("s2xs2_genus2").diagram
    assert mirror(mirror(d)).canonical() == d.canonical()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_translation_quotient_reproduces_unit_grid(m):
    e = natural_genus1(m)
    q = quotient(e.diagram, e.action, n_generators=e.action.generators[:2])
    assert q.subgroup_order == m * m
    assert q.cone_points == []
    base = natural_genus1(1)
    assert q.diagram.canonical() == base.diagram.canonical()


def test_natural_genus1_rejects_imprimitive_slopes():
    with pytest.raises(NonStandardSlopes):
        natural_genus1(2, ((2, 2), (0, 1), (1, 1)))


def test_s2xs2_hyperelliptic_quotient_is_spherical():
    e = standard("s2xs2_genus2")
    assert e.expected.genus == 2 and e.expected.k == (0, 0, 0)
    # tau is the hyperelliptic involution: first generator of the action
    q = quotient(e.diagram, e.action, n_generators=e.action.generators[:1])
    assert q.subgroup_order == 2
    assert q.diagram.surface.genus() == 0
    assert q.cone_orders() == [2] * 6
    verdict, report = quotient_is_trisection(q)
    assert verdict in ("Yes", "Certified"), report.summary()


@pytest.mark.parametrize("name", ["d4_double", "d6_double", "d6_s4"])
def test_genus_two_strongly_minimal_entries(name):
    e = genus2_strongly_minimal(name)
    rep = validate_trisection(e.diagram)
    assert rep.ok, rep.summary()
    assert (rep.genus, rep.k) == (2, e.expected.k)
    assert h1_mod_curves(e.diagram, (1, 2, 3)) == e.expected.h1
    order = len(check_action(e.diagram, e.action))
    assert order == e.expected.action_order
    # the bound 12(g-1) at genus 2
    assert order <= 12


def test_d4_double_deck_voltages_rebuild_the_diagram():
    e = genus2_strongly_minimal("d4_double")
    va = e.voltages
    orders = sorted(va.group.element_order(w) for w in va.meridians.values())
    assert orders == [2, 2, 4, 4]
    g, _ = expected_lift_parameters_of(va)
    assert g == 2


def expected_lift_parameters_of(va):
    # rebuild the base the d4 entry derives from: sphere with four branch
    # points of the meridian orders; Riemann-Hurwitz on the orders alone
    n = len(va.group)
    branch = [va.group.element_order(w) for w in va.meridians.values()]
    chi = n * (2 - sum(1 - 1 / m for m in branch))
    g = int(round(1 - chi / 2))
    return g, branch


def test_q8_base_shape():
    e = q8_link_base()
    rep = validate_trisection(e.diagram)
    assert rep.ok, rep.summary()
    assert (rep.genus, rep.k) == (0, (0, 0, 0))
    sv = rep.shadow_verdict
    assert (sv.b, sv.p) == (4, (2, 2, 2))
    assert sv.chi_surface == 2
    g = e.voltages.group
    assert all(g.element_order(w) == 4 for w in e.voltages.meridians.values())


def test_q8_reduction_lift_parameters():
    entry_, reds = q8_reductions()
    for label, va, expect in reds:
        g, branch = expected_lift_parameters(entry_.diagram, va)
        assert g == expect.genus, label


def test_q8_smallest_reduction_validates():
    entry_, reds = q8_reductions()
    label, va, expect = reds[0]
    cov = derived_cover(entry_.diagram, va).diagram
    rep = validate_trisection(cov)
    assert rep.ok, rep.summary()
    assert (rep.genus, rep.k) == (1, (0, 0, 0))
    assert h1_mod_curves(cov, (1, 2, 3)) == expect.h1


@pytest.mark.parametrize("name", FROZEN_NAMES)
def test_frozen_fixture_files_match_generators(name):
    assert frozen_text(name + ".diagram") == entry_file_text(name)


@pytest.mark.parametrize("name", FROZEN_NAMES)
def test_frozen_fixture_files_parse_and_revalidate(name):
    df = parse_diagram_file(frozen_text(name + ".diagram"))
    e = entry(name)
    assert df.diagram.canonical() == e.diagram.canonical()
    assert validate_shadow(df.diagram).ok


def test_unknown_names_raise():
    with pytest.raises(UnknownName):
        standard("t4_flat")
    with pytest.raises(UnknownName):
        entry("natural_genus1(m=two)")
