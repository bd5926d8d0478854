"""The diagram reader against a reference copy of the reader it replaced.

``reference_parse`` is the per-token reader: it splits every line, reads
each integer row with ``read_ints`` and each single integer with
``read_ints`` too, and checks each ``edge`` line on one branch.  The
reader in ``etd.diagio`` must give the same ``DiagramFile``, or raise the
same exception class with the same message, on every input here.
"""

import random

import pytest

from etd.catalog import (
    FROZEN_NAMES,
    STANDARD_NAMES,
    entry_file_text,
    natural_genus1,
    q8_reductions,
)
from etd.cmap import CellId, CombMap, UnknownCell
from etd.cover import derived_cover
from etd.diagio import (
    FORMAT_NAME,
    FORMAT_VERSION,
    DiagramFile,
    FileFormatError,
    _element_token,
    _read_element,
    parse_diagram_file,
    read_ints,
    serialize_diagram,
)
from etd.diagram import COLOR_NAMES, SCAFFOLD, DiagramError, ShadowDiagram, parse_color
from etd.groups import GroupError, group_by_name
from test_canonical import relabel_map
from test_catalog import frozen_text


def _read_int(tok):
    return read_ints((tok,))[0]


def reference_parse(text: str) -> DiagramFile:
    """The per-token reader, kept as the reference for the one in
    ``etd.diagio``."""
    rows = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1)]
    rows = [(i, ln) for i, ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise FileFormatError("empty diagram file")
    head = rows[0][1].split()
    if len(head) != 2 or head[0] != FORMAT_NAME:
        raise FileFormatError("not a %s file" % FORMAT_NAME)
    if head[1] != str(FORMAT_VERSION):
        raise FileFormatError("unsupported version %r" % head[1])

    n = None
    pairing = None
    rotation = None
    colors = []
    marked = None
    group = None
    action_rows = []
    voltage_rows = []
    meridian_rows = []
    cone_rows = []
    expected = None
    for lineno, ln in rows[1:]:
        parts = ln.split()
        key = parts[0]
        try:
            if key == "darts":
                if n is not None or len(parts) != 2:
                    raise FileFormatError("bad darts line")
                n = _read_int(parts[1])
            elif key == "pairing":
                if pairing is not None:
                    raise FileFormatError("duplicate pairing line")
                pairing = read_ints(parts[1:])
            elif key == "rotation":
                if rotation is not None:
                    raise FileFormatError("duplicate rotation line")
                rotation = read_ints(parts[1:])
            elif key == "edge":
                if len(parts) != 3:
                    raise FileFormatError("bad edge line %r" % ln)
                dart = _read_int(parts[1])
                try:
                    c = parse_color(parts[2])
                except DiagramError as err:
                    raise DiagramError("line %d: %s" % (lineno, err))
                if c == SCAFFOLD:
                    raise FileFormatError(
                        "edge %d is listed as scaffold, the color of unlisted edges" % dart
                    )
                colors.append((lineno, dart, c))
            elif key == "marked":
                if marked is not None:
                    raise FileFormatError("duplicate marked line")
                marked = (lineno, read_ints(parts[1:]))
            elif key == "group":
                if group is not None:
                    raise FileFormatError("duplicate group line")
                try:
                    group = group_by_name(" ".join(parts[1:]))
                except GroupError as err:
                    raise FileFormatError(str(err))
            elif key == "action":
                if len(parts) < 3:
                    raise FileFormatError("bad action line %r" % ln)
                action_rows.append((lineno, parts[1], read_ints(parts[2:])))
            elif key == "voltage":
                if len(parts) != 3:
                    raise FileFormatError("bad voltage line %r" % ln)
                voltage_rows.append((lineno, _read_int(parts[1]), parts[2]))
            elif key == "meridian":
                if len(parts) != 3:
                    raise FileFormatError("bad meridian line %r" % ln)
                meridian_rows.append((lineno, _read_int(parts[1]), parts[2]))
            elif key == "cone":
                if len(parts) != 4:
                    raise FileFormatError("bad cone line %r" % ln)
                cone_rows.append((lineno, parts[1], *read_ints(parts[2:])))
            elif key == "expected":
                if expected is not None:
                    raise FileFormatError("duplicate expected line")
                if len(parts) != 5:
                    raise FileFormatError("bad expected line %r" % ln)
                ks = tuple(None if p == "?" else _read_int(p) for p in parts[2:])
                expected = (_read_int(parts[1]), ks)
            else:
                raise FileFormatError("unknown key %r" % key)
        except FileFormatError as err:
            raise FileFormatError("line %d: %s" % (lineno, err))
    if n is None or pairing is None or rotation is None:
        raise FileFormatError("missing darts/pairing/rotation")
    if len(pairing) != n or len(rotation) != n:
        raise FileFormatError("pairing/rotation length disagrees with darts")
    m = CombMap(n, pairing, rotation)
    ep, vertex_orbits, vertex_of = m.edge_pairing, m._vertex_orbits, m.vertex_of

    def is_edge_rep(x):
        return 0 <= x < n and x < ep[x]

    def is_vertex_rep(x):
        return 0 <= x < n and vertex_orbits[vertex_of[x]][0] == x

    dart_colors = bytearray([SCAFFOLD]) * n
    colored = set()
    for lineno, dart, c in colors:
        if not is_edge_rep(dart):
            raise FileFormatError(
                "line %d: edge %d is not an edge representative" % (lineno, dart)
            )
        if dart in colored:
            raise FileFormatError("line %d: edge %d colored twice" % (lineno, dart))
        colored.add(dart)
        dart_colors[dart] = dart_colors[ep[dart]] = c
    marked_line, marked_darts = marked or (0, [])
    for k, dart in enumerate(marked_darts):
        if not is_vertex_rep(dart):
            raise FileFormatError(
                "line %d: dart %d is not a vertex representative" % (marked_line, dart)
            )
        if dart in marked_darts[:k]:
            raise FileFormatError("line %d: vertex %d marked twice" % (marked_line, dart))
    d = ShadowDiagram.from_darts(m, dart_colors, marked_darts)

    action = None
    if action_rows:
        from etd.symmetry import DiagramAction, base_darts

        for lineno, name, perm in action_rows:
            if sorted(perm) != list(range(n)):
                raise FileFormatError(
                    "line %d: action generator %s is not a dart permutation" % (lineno, name)
                )
        action = DiagramAction(
            [tuple(perm) for _, _, perm in action_rows],
            [name for _, name, _ in action_rows],
            base_darts(m),
        )

    voltages = None
    if group is not None:
        from etd.cover import CoverError, VoltageAssignment

        tokens = {_element_token(x): x for x in group.elements}
        volt = {x: group.identity for x in range(n)}
        given = set()
        for lineno, dart, tok in voltage_rows:
            if not is_edge_rep(dart):
                raise FileFormatError(
                    "line %d: voltage dart %d is not an edge representative" % (lineno, dart)
                )
            if dart in given:
                raise FileFormatError("line %d: edge %d has two voltages" % (lineno, dart))
            given.add(dart)
            try:
                w = _read_element(tokens, group, tok)
            except FileFormatError as err:
                raise FileFormatError("line %d: %s" % (lineno, err))
            volt[dart] = w
            volt[ep[dart]] = group.inv(w)
        mer = {}
        marked_cells = {v.dart: v for v in d.marked}
        for lineno, dart, tok in meridian_rows:
            if not is_vertex_rep(dart):
                raise FileFormatError(
                    "line %d: meridian dart %d is not a vertex representative" % (lineno, dart)
                )
            v = marked_cells.get(dart) or CellId("vertex", dart)
            if v in mer:
                raise FileFormatError("line %d: vertex %d has two meridians" % (lineno, dart))
            try:
                mer[v] = _read_element(tokens, group, tok)
            except FileFormatError as err:
                raise FileFormatError("line %d: %s" % (lineno, err))
        try:
            voltages = VoltageAssignment(group, volt, mer).validated(d)
        except CoverError as err:
            raise FileFormatError(str(err))
    elif voltage_rows or meridian_rows:
        raise FileFormatError("voltage/meridian lines without a group line")

    cones = []
    for lineno, kind, dart, order in cone_rows:
        if order < 2:
            raise FileFormatError("line %d: cone order %d is below 2" % (lineno, order))
        try:
            cell = m.cell_of(kind, dart)
        except UnknownCell:
            raise FileFormatError("line %d: no %s cell at dart %d" % (lineno, kind, dart))
        if cell.dart != dart:
            raise FileFormatError(
                "line %d: cone dart %d is not a cell representative" % (lineno, dart)
            )
        cones.append((cell, order))
    return DiagramFile(d, voltages, expected, cones, action)


def summary(df: DiagramFile):
    """Everything a ``DiagramFile`` holds, with the types of its integers."""
    d, m, va, act = df.diagram, df.diagram.surface, df.voltages, df.action
    ints = [x for row in (m.edge_pairing, m.rotation) for x in row]
    if act is not None:
        ints += [x for perm in act.generators for x in perm]
    return (
        {type(x) for x in ints},
        m.n_darts, list(m.edge_pairing), list(m.rotation), d.dart_colors, d.marked,
        [d.darts_of_color(c) for c in range(len(COLOR_NAMES))],
        None if va is None else (va.group.name, va.voltage, va.meridians),
        df.expected, df.cones,
        None if act is None else (act.generators, act.names, act.base),
    )


def outcome(parse, text):
    try:
        return "ok", summary(parse(text))
    except Exception as err:  # the class and message are what is compared
        return type(err), str(err)


def relabelled_text(d, seed):
    """``d``'s file with its darts renamed by a seeded permutation."""
    m = d.surface
    perm = list(range(m.n_darts))
    random.Random(seed).shuffle(perm)
    colors = bytearray(m.n_darts)
    for x, c in enumerate(d.dart_colors):
        colors[perm[x]] = c
    marked = [perm[v.dart] for v in d.marked]
    return serialize_diagram(ShadowDiagram.from_darts(relabel_map(m, perm), colors, marked))


def q8_texts():
    base, reds = q8_reductions()
    for label, va, report in reds:
        yield "q8_%s" % label, serialize_diagram(
            base.diagram, voltages=va, expected=(report.genus, report.k)
        )
        lift = derived_cover(base.diagram, va).diagram
        yield "q8_%s_lift" % label, serialize_diagram(lift)
        yield "q8_%s_relabelled" % label, relabelled_text(lift, label)


def whole_texts():
    for name in FROZEN_NAMES:
        yield name + "_frozen", frozen_text(name + ".diagram")
    for name in STANDARD_NAMES + FROZEN_NAMES:
        yield name, entry_file_text(name)
    for m in range(1, 7):
        e = natural_genus1(m)
        yield "genus1_%d" % m, serialize_diagram(
            e.diagram, expected=(e.expected.genus, e.expected.k), action=e.action
        )
    yield from q8_texts()


@pytest.mark.parametrize("name, text", list(whole_texts()), ids=lambda x: x[:24])
def test_reader_matches_reference_on_whole_files(name, text):
    got = outcome(parse_diagram_file, text)
    assert got[0] == "ok"
    assert got == outcome(reference_parse, text)


BAD_TOKENS = (
    "00", "-0", "-05", "+1", "1_0", "1,2", "[1]", "1.0", "1e3", "NaN", "٤",
    "9" * 5000, "-" + "9" * 5000, "-", "--1", "1-2", "-3", "1 2", "0 0",
)
EDGE_LINES = (
    "edge 00 shadow2", "edge 3 scaffold", "edge 3 alpha4", "edge 3", "edge 3 shadow1 x",
    "edge -2 shadow1", "edge 2 Shadow1", "edge 2 shadow١", "edge 2 alpha0", "edge 0 shadow3",
    "edge 99 alpha1", "edge %s alpha1" % ("9" * 5000), "edge 2\talpha1", "edge\t2 alpha1",
)


def line_edits(line):
    """Edits of one line: its whitespace, and each of its value tokens
    replaced by each bad token."""
    yield line.replace(" ", "\t", 1)
    yield line[::-1].replace(" ", "\t", 1)[::-1]
    yield line.replace(" ", "  ", 1)
    yield line[::-1].replace(" ", "  ", 1)[::-1]
    yield line + "   "
    yield "  " + line
    yield line + " # note"
    yield line + " 0"
    yield line.split()[0]
    words = line.split(" ")
    for k in sorted({1, 2, len(words) - 1} & set(range(1, len(words)))):
        for tok in BAD_TOKENS:
            yield " ".join(words[:k] + [tok] + words[k + 1:])


def edited_texts():
    base, reds = q8_reductions()
    e = natural_genus1(2)
    sources = {
        "theta": (
            "etd-diagram 1\ndarts 6\npairing 1 0 3 2 5 4\nrotation 2 5 4 1 0 3\n"
            "edge 0 shadow1\nedge 2 shadow2\nedge 4 shadow3\nmarked 0 1\n"
        ),
        "genus1_2": serialize_diagram(
            e.diagram, expected=(e.expected.genus, e.expected.k), action=e.action
        ),
        "q8": serialize_diagram(base.diagram, voltages=reds[0][1], expected=(5, (1, 1, 1))),
    }
    for name, text in sources.items():
        lines = text.splitlines()
        seen = set()
        for i, line in enumerate(lines):
            key = line.split()[0]
            if key in seen:
                continue
            seen.add(key)
            yield "%s/%s/comment" % (name, key), "\n".join(
                lines[:i] + ["# " + line, "#"] + lines[i:]
            )
            for j, new in enumerate(line_edits(line)):
                yield "%s/%s/%d" % (name, key, j), "\n".join(lines[:i] + [new] + lines[i + 1:])
            if key == "edge":
                for j, new in enumerate(EDGE_LINES):
                    yield "%s/edge_line/%d" % (name, j), "\n".join(
                        lines[:i] + [new] + lines[i + 1:]
                    )
                    yield "%s/edge_extra/%d" % (name, j), "\n".join(lines + [new])


def test_reader_matches_reference_on_edited_rows():
    cases = list(edited_texts())
    assert len(cases) > 1000
    errors = set()
    for label, text in cases:
        got = outcome(parse_diagram_file, text)
        assert got == outcome(reference_parse, text), label
        errors.add(got[0])
    # the edits reach parse errors, semantic errors and accepted files
    assert {"ok", FileFormatError, DiagramError} <= errors
