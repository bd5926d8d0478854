import sys

import pytest

from etd.catalog import (
    FROZEN_NAMES,
    natural_genus1,
    q8_link_base,
    q8_reductions,
    standard,
)
from etd import diagio
from etd.cli import main
from etd.cmap import CombMap
from etd.cover import derived_cover
from etd.diagio import (
    FileFormatError,
    _element_token,
    parse_diagram_file,
    read_int,
    read_ints,
    serialize_diagram,
)
from etd.diagram import ShadowDiagram, alpha, parse_color, shadow
from etd.groups import GroupError, group_by_name
from test_catalog import frozen_text


def theta_text():
    return (
        "etd-diagram 1\n"
        "darts 6\n"
        "pairing 1 0 3 2 5 4\n"
        "rotation 2 5 4 1 0 3\n"
        "edge 0 shadow1\n"
        "edge 2 shadow2\n"
        "edge 4 shadow3\n"
        "marked 0 1\n"
    )


def test_round_trip_plain():
    d = parse_diagram_file(theta_text()).diagram
    assert serialize_diagram(d) == theta_text()


def test_comments_and_blank_lines_ignored():
    text = "# a fixture\n\n" + theta_text()
    assert parse_diagram_file(text).diagram.surface.n_darts == 6


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("etd-diagram 1", "etd-diagram 2"),
        lambda t: t.replace("darts 6", "darts 7"),
        lambda t: t + "frobnicate 1\n",
        lambda t: t + "edge 1 shadow1\n",
        lambda t: t + "voltage 0 1\n",  # voltages without a group
    ],
)
def test_malformed_files_rejected(mutation):
    with pytest.raises(FileFormatError):
        parse_diagram_file(mutation(theta_text()))


@pytest.mark.parametrize(
    "tail, message",
    [
        ("marked 0 1 1\n", "line 8: vertex 1 marked twice"),
        ("group cyclic 4\nvoltage 0 1\nvoltage 0 3\n", "line 10: edge 0 has two voltages"),
        ("group cyclic 4\nmeridian 0 1\nmeridian 0 2\n", "line 10: vertex 0 has two meridians"),
    ],
    ids=["marked", "voltage", "meridian"],
)
def test_repeated_entries_rejected(tail, message):
    # as a second edge line for one edge is: keeping one of them would
    # write the file back different
    text = theta_text().replace("marked 0 1\n", "") + tail
    with pytest.raises(FileFormatError, match="^%s$" % message):
        parse_diagram_file(text)


def test_group_block_round_trip():
    text = theta_text() + "group cyclic 4\nvoltage 0 3\nmeridian 0 1\nmeridian 1 3\n"
    df = parse_diagram_file(text)
    assert df.voltages.group.name == "cyclic 4"
    assert df.voltages.voltage[0] == 3
    assert df.voltages.voltage[1] == 1  # partner dart gets the inverse
    out = serialize_diagram(df.diagram, voltages=df.voltages)
    assert out == text


def test_expected_block_round_trip():
    text = theta_text() + "expected 17 5 ? 5\n"
    df = parse_diagram_file(text)
    assert df.expected == (17, (5, None, 5))
    assert serialize_diagram(df.diagram, expected=df.expected) == text


def test_voltage_element_must_belong_to_group():
    text = theta_text() + "group cyclic 4\nvoltage 0 j\n"
    with pytest.raises(FileFormatError):
        parse_diagram_file(text)


def test_tuple_elements_round_trip():
    text = theta_text() + "group cyclic 2 x cyclic 2\nvoltage 0 (1,1)\nmeridian 0 (0,1)\n"
    df = parse_diagram_file(text)
    assert df.voltages.voltage[0] == (1, 1)
    assert serialize_diagram(df.diagram, voltages=df.voltages) == text


def test_action_block_round_trip():
    text = theta_text() + "action sw 1 0 3 2 5 4\n"
    df = parse_diagram_file(text)
    assert df.action is not None
    assert df.action.names == ["sw"]
    assert df.action.generators[0] == (1, 0, 3, 2, 5, 4)
    assert serialize_diagram(df.diagram, action=df.action) == text


def test_action_block_must_be_permutation():
    with pytest.raises(FileFormatError):
        parse_diagram_file(theta_text() + "action sw 0 0 3 2 5 4\n")


def test_group_by_name_parses_products():
    g = group_by_name("cyclic 2 x cyclic 3")
    assert len(g) == 6 and g.identity == (0, 0)
    assert len(group_by_name("quaternion")) == 8
    assert len(group_by_name("dihedral 6")) == 12


@pytest.mark.parametrize(
    "name, order",
    [
        ("cyclic 64", 64),
        ("quaternion x quaternion", 64),
        ("handlebody_torus 5", 50),
        ("cyclic 2 x dihedral 4 x cyclic 4", 64),
        ("cyclic 65", None),
        ("dihedral 33", None),
        ("handlebody_torus 6", None),
        ("quaternion x cyclic 3 x cyclic 3", None),
        ("cyclic 10000000000000000000000", None),
    ],
)
def test_group_by_name_bounds_the_order_before_building(name, order):
    if order is not None:
        assert len(group_by_name(name)) == order
        return
    with pytest.raises(GroupError, match="above 64"):
        group_by_name(name)


def test_q8_fixture_file_carries_a_working_cover():
    e = q8_link_base()
    text = serialize_diagram(e.diagram, voltages=e.voltages, expected=(17, (5, 5, 5)))
    df = parse_diagram_file(text)
    cov = derived_cover(df.diagram, df.voltages).diagram
    assert cov.surface.genus() == df.expected[0]


def test_catalog_entries_serialize_stably():
    for name in ("cp2", "s1xs3", "s2xs2_genus2"):
        d = standard(name).diagram
        text = serialize_diagram(d)
        assert serialize_diagram(parse_diagram_file(text).diagram) == text


@pytest.mark.parametrize(
    "old, new",
    [
        ("darts 6", "darts +6"),
        ("pairing 1 0 3 2 5 4", "pairing 1 0 3 2 5 ٤"),
        ("rotation 2 5 4 1 0 3", "rotation 2 5 4 1 0 0_3"),
        ("edge 2 shadow2", "edge +2 shadow2"),
        ("marked 0 1", "marked 0 ١"),
        ("darts 6", "darts 06"),
        ("pairing 1 0 3 2 5 4", "pairing 1 0 3 2 5 -0"),
        ("edge 2 shadow2", "edge 00 shadow2"),
    ],
)
def test_integers_are_written_as_str_writes_them(tmp_path, old, new):
    # int() reads all of these, but the file would not be written back
    # byte for byte
    text = theta_text()
    lineno = text.splitlines().index(old) + 1
    bad = text.replace(old, new)
    with pytest.raises(FileFormatError, match=r"^line %d: .* is not an integer$" % lineno):
        parse_diagram_file(bad)
    p = tmp_path / "bad.diagram"
    p.write_text(bad)
    assert main(["validate", str(p)]) == 1


def test_integer_reader_rejects_what_int_reads_differently():
    assert read_ints(["0", "10", "-7", "0", "120"]) == [0, 10, -7, 0, 120]
    assert read_ints([]) == []
    for bad in ("007", "-0", "-05", "+1", "1_0", "٤", "0x1", "1-2", ""):
        with pytest.raises(FileFormatError, match="is not an integer"):
            read_ints(["3", bad, "0"])
        with pytest.raises(FileFormatError, match="is not an integer"):
            read_int(bad)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(FileFormatError, match="^integer too long$"):
            read_ints(["1", "9" * 700])
    finally:
        sys.set_int_max_str_digits(old)


def edge_dict_diagram(text):
    """Test-only copy of the parse the per-dart reader replaced: the
    ``edge`` and ``marked`` lines of a well-formed file, read into dicts
    of edge and vertex CellIds for the edge-dict constructor."""
    rows = {}
    for ln in text.splitlines():
        key, *rest = ln.split()
        rows.setdefault(key, []).append(rest)
    n = int(rows["darts"][0][0])
    m = CombMap(n, map(int, rows["pairing"][0]), map(int, rows["rotation"][0]))
    edges = {e.dart: e for e in m.edges()}
    vertices = {v.dart: v for v in m.vertices()}
    color = {edges[int(x)]: parse_color(c) for x, c in rows.get("edge", ())}
    marked = {vertices[int(x)] for row in rows.get("marked", ()) for x in row}
    return ShadowDiagram(m, color, marked)


def _q8_lift_text(k):
    base, reds = q8_reductions()
    return serialize_diagram(derived_cover(base.diagram, reds[k][1]).diagram)


def _parity_cases():
    cases = [pytest.param(lambda n=n: frozen_text(n + ".diagram"), id=n) for n in FROZEN_NAMES]
    cases += [
        pytest.param(lambda m=m: serialize_diagram(natural_genus1(m).diagram), id="genus1_%d" % m)
        for m in range(1, 7)
    ]
    cases += [pytest.param(lambda k=k: _q8_lift_text(k), id="q8_lift_%d" % k) for k in range(5)]
    return cases


@pytest.mark.parametrize("text", _parity_cases())
def test_per_dart_parse_matches_edge_dict_constructor(text):
    text = text()
    d = parse_diagram_file(text).diagram
    ref = edge_dict_diagram(text)
    assert d.surface.edge_pairing == ref.surface.edge_pairing
    assert d.dart_colors == ref.dart_colors
    assert d.marked == ref.marked
    assert serialize_diagram(d) == serialize_diagram(ref)


@pytest.mark.parametrize(
    "name", ["cyclic 3", "quaternion", "cyclic 2 x cyclic 2", "dihedral 3", "handlebody_torus 2"]
)
def test_every_element_token_reads_back_as_its_element(name):
    g = group_by_name(name)
    for x in g.elements:
        if x == g.identity:
            continue
        text = theta_text() + "group %s\nvoltage 0 %s\n" % (name, _element_token(x))
        df = parse_diagram_file(text)
        assert df.voltages.voltage[0] == x and type(df.voltages.voltage[0]) is type(x)
        assert serialize_diagram(df.diagram, voltages=df.voltages) == text


LONG = "9" * 5000  # more digits than int reads under its default limit


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("darts 6", "darts " + LONG, "line 2: integer too long"),
        ("pairing 1 0 3 2 5 4", "pairing 1 0 3 2 5 " + LONG, "line 3: integer too long"),
        ("edge 2 shadow2", "edge %s shadow2" % LONG, "line 6: integer too long"),
        ("marked 0 1", "marked 0 1\nexpected %s 1 1 1" % LONG, "line 9: integer too long"),
        ("marked 0 1", "marked 0 1\nexpected 1 1 %s 1" % LONG, "line 9: integer too long"),
        ("marked 0 1", "marked 0 1\ncone vertex 0 " + LONG, "line 9: integer too long"),
        (
            "marked 0 1",
            "marked 0 1\ngroup cyclic 4\nvoltage %s 1" % LONG,
            "line 10: integer too long",
        ),
        (
            "marked 0 1",
            "marked 0 1\ngroup cyclic " + LONG,
            "line 9: integer too long in group name",
        ),
    ],
    ids=["darts", "pairing", "edge", "expected", "expected_k", "cone", "voltage", "group"],
)
def test_over_long_integer_is_a_parse_error(tmp_path, capsys, old, new, message):
    text = theta_text().replace(old, new)
    with pytest.raises(FileFormatError, match="^%s$" % message):
        parse_diagram_file(text)
    p = tmp_path / "long.diagram"
    p.write_text(text)
    assert main(["validate", str(p)]) == 1
    assert capsys.readouterr().err == "parse error: %s\n" % message


def test_over_long_single_tokens():
    with pytest.raises(FileFormatError, match="^integer too long$"):
        read_int(LONG)
    with pytest.raises(GroupError, match="^integer too long in group name$"):
        group_by_name("cyclic " + LONG)
    assert read_int("9" * 18) == int("9" * 18)
    assert read_int("9" * 30) == int("9" * 30)  # past the plain-digit path, still read


def test_reading_rows_calls_no_per_token_reader(monkeypatch):
    # the natural_genus1(10) file: 1200 darts, 600 edge lines, 3 action rows
    e = natural_genus1(10)
    text = serialize_diagram(e.diagram, expected=(e.expected.genus, e.expected.k), action=e.action)
    calls = {"read_ints": 0, "by_color": 0}
    read_ints_ = diagio.read_ints
    by_color = ShadowDiagram._darts_by_color

    def counted_read_ints(tokens):
        calls["read_ints"] += 1
        return read_ints_(tokens)

    def counted_by_color(self):
        calls["by_color"] += 1
        return by_color(self)

    monkeypatch.setattr(diagio, "read_ints", counted_read_ints)
    monkeypatch.setattr(ShadowDiagram, "_darts_by_color", counted_by_color)
    df = parse_diagram_file(text)
    assert len(df.action.generators) == 3 and df.diagram.surface.n_darts == 1200
    assert calls == {"read_ints": 0, "by_color": 0}
    shadows = df.diagram.darts_of_color(shadow(1))
    assert shadows == [x for x, c in enumerate(df.diagram.dart_colors) if c == shadow(1)]
    df.diagram.darts_of_color(alpha(1))
    assert calls == {"read_ints": 0, "by_color": 1}
    # a row the scanner does not take still goes through read_ints
    parse_diagram_file(text.replace("pairing ", "pairing  ", 1))
    assert calls["read_ints"] == 1
