import pytest

from etd.cmap import CombMap
from etd.diagram import SCAFFOLD, ShadowDiagram, shadow
from etd.surgery import SurgeryError, tube


def theta_sphere():
    ep = [1, 0, 3, 2, 5, 4]
    rot = [2, 5, 4, 1, 0, 3]
    m = CombMap(6, ep, rot)
    color = {
        m.cell_of("edge", 0): shadow(1),
        m.cell_of("edge", 2): shadow(2),
        m.cell_of("edge", 4): shadow(3),
    }
    return ShadowDiagram(m, color, [m.cell_of("vertex", 0), m.cell_of("vertex", 1)])


def test_tube_adds_euler_characteristics():
    d1 = theta_sphere()
    d2 = theta_sphere()
    f1 = d1.surface.faces()[0]
    f2 = d2.surface.faces()[0]
    d, shift = tube(d1, f1, d2, f2)
    assert shift == 6
    assert d.surface.euler_characteristic() == 2 + 2 - 2
    assert d.surface.genus() == 0
    # both marked pairs survive
    assert len(d.marked) == 4


def test_tube_keeps_colors_and_adds_scaffold_rungs():
    d1 = theta_sphere()
    d2 = theta_sphere()
    d, shift = tube(d1, d1.surface.faces()[0], d2, d2.surface.faces()[0])
    edge_colors = [d.dart_colors[e.dart] for e in d.surface.edges()]
    assert sum(edge_colors.count(shadow(i)) for i in (1, 2, 3)) == 6
    assert edge_colors.count(SCAFFOLD) == 2  # one rung per boundary dart of the face


def test_tube_rejects_mismatched_faces():
    d1 = theta_sphere()  # all faces have length 2
    m = CombMap(2, [1, 0], [1, 0])  # one loop: two monogon faces
    d2 = ShadowDiagram(m, {m.cell_of("edge", 0): shadow(1)})
    with pytest.raises(SurgeryError):
        tube(d1, d1.surface.faces()[0], d2, d2.surface.faces()[0])

