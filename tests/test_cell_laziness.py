"""The hot path of a lift builds no cell objects.

Parsing a Q8 voltage file, lifting it, writing the lift, reading it
back and validating it read the maps' flat arrays.  Each stage may name
the marked vertices of the diagram it builds as ``CellId``s (the
diagram's ``marked`` set), and nothing else: the 1712-dart lift has 392
vertices, 856 edges and 432 faces, and a cell list built eagerly would
make each of them a ``CellId`` at every parse.
"""

from collections import Counter

import pytest

from etd.catalog import q8_reductions
from etd.cmap import CellId
from etd.cover import derived_cover
from etd.diagio import parse_diagram_file, serialize_diagram
from etd.diagram import validate_trisection


@pytest.mark.parametrize("k", range(5))
def test_lift_pipeline_builds_only_marked_vertex_cells(k, monkeypatch):
    base, reds = q8_reductions()
    _, va, report = reds[k]
    text = serialize_diagram(base.diagram, voltages=va, expected=(report.genus, report.k))

    built = Counter()
    post_init = CellId.__post_init__

    def counting(self):
        built[self.kind] += 1
        post_init(self)

    monkeypatch.setattr(CellId, "__post_init__", counting)

    def stage(run, diagram_of):
        built.clear()
        out = run()
        d = diagram_of(out)
        assert built["edge"] == built["face"] == 0
        assert built["vertex"] <= len(d.marked)
        return out

    df = stage(lambda: parse_diagram_file(text), lambda f: f.diagram)
    cover = stage(lambda: derived_cover(df.diagram, df.voltages), lambda c: c.diagram)
    lifted = stage(lambda: serialize_diagram(cover.diagram), lambda _: cover.diagram)
    df2 = stage(lambda: parse_diagram_file(lifted), lambda f: f.diagram)
    verdict = stage(lambda: validate_trisection(df2.diagram), lambda _: df2.diagram)
    assert verdict.ok
    assert df2.diagram.surface.n_darts == (428, 428, 428, 856, 1712)[k]
