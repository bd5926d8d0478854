import sys

import pytest

from etd.catalog import q8_link_base, standard
from etd.cli import main
from etd.cover import derived_cover
from etd.diagio import (
    FileFormatError,
    parse_diagram_file,
    read_int,
    read_ints,
    serialize_diagram,
)
from etd.groups import GroupError, group_by_name


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
