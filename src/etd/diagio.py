"""Line-oriented, versioned file format for shadow diagrams.

    etd-diagram 1
    darts 6
    pairing 1 0 3 2 5 4
    rotation 2 5 4 1 0 3
    edge 0 shadow1
    edge 2 shadow2
    edge 4 shadow3
    marked 0 1

Integers are written as ``str`` writes them, ``0|-?[1-9][0-9]*`` in
ASCII: no leading zero, a ``-`` on negatives only, and none of the ``+``,
``_``, ``-0`` or non-ASCII digits that ``int`` also reads; one with more
digits than ``int`` reads is a parse error.  An integer row
(``pairing``, ``rotation``, ``marked``, an ``action`` permutation) of
ASCII digits, ``-`` and spaces without ``-0`` is decoded in one call of
the JSON scanner: JSON's integer grammar, ``-?(0|[1-9][0-9]*)``, is this
one plus ``-0``.  Any other row is read token by token, which names its
first bad token.  ``edge`` lines name an edge by its
smallest dart; unlisted edges are scaffold, and an ``edge`` line naming
``scaffold`` is rejected, since it would not be written back.
``marked`` lists marked vertices by their smallest darts.  Unknown keys
and malformed counts are rejected; a parse error in a line names its
number.

Optional blocks:

    action tx 2 3 0 1 6 7 4 5
    group quaternion
    voltage 0 i
    meridian 0 j
    cone vertex 4 2
    expected 17 5 5 5

``action`` lines carry named symmetry generators as dart permutations;
``group`` names a standard deck group (see groups.group_by_name);
``voltage`` lines give one element per edge representative (identity if
unlisted, partner darts get the inverse); ``meridian`` lines attach a
branching element to a marked vertex.  ``cone`` records an orbifold point
(cell kind, representative dart, local order at least 2).  ``expected``
pins the (genus; k1 k2 k3) the file's cover should validate to, ``?``
for an unconstrained slot.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

from .cmap import CellId, CombMap, UnknownCell
from .diagram import COLOR_NAMES, SCAFFOLD, DiagramError, ShadowDiagram, parse_color
from .groups import Group, GroupError, group_by_name

FORMAT_NAME = "etd-diagram"
FORMAT_VERSION = 1


class FileFormatError(ValueError):
    pass


@dataclass
class DiagramFile:
    """A parsed diagram file: the diagram plus the optional blocks."""

    diagram: ShadowDiagram
    voltages: Optional[object] = None  # cover.VoltageAssignment
    expected: Optional[tuple] = None  # (genus, (k1, k2, k3)) with None slots
    cones: list = field(default_factory=list)  # (CellId, order)
    action: Optional[object] = None  # symmetry.DiagramAction


def _element_token(x) -> str:
    if isinstance(x, str):
        return x
    return repr(x).replace(" ", "")


# the characters of the tokens of integers and of tuples of them
_NUMERIC = frozenset("0123456789-(),")


def _read_element(tokens: dict, g: Group, tok: str):
    """The element of ``g`` that ``tok`` names; ``tokens`` maps each
    element's :func:`_element_token` back to it."""
    if tok in tokens:
        return tokens[tok]
    if set(tok) <= _NUMERIC:
        raise FileFormatError("%r is not an element of %s" % (tok, g.name))
    raise FileFormatError("cannot read group element %r" % tok)


def serialize_diagram(
    d: ShadowDiagram, voltages=None, expected=None, cones=(), action=None
) -> str:
    m = d.surface
    lines = [
        "%s %d" % (FORMAT_NAME, FORMAT_VERSION),
        "darts %d" % m.n_darts,
        "pairing %s" % " ".join(map(str, m.edge_pairing)),
        "rotation %s" % " ".join(map(str, m.rotation)),
    ]
    for x, _ in m._edge_orbits:
        c = d.dart_colors[x]
        if c != SCAFFOLD:
            lines.append("edge %d %s" % (x, COLOR_NAMES[c]))
    marked = sorted(v.dart for v in d.marked)
    if marked:
        lines.append("marked %s" % " ".join(map(str, marked)))
    if action is not None:
        for perm, name in zip(action.generators, action.names):
            if sorted(perm) != list(range(m.n_darts)):
                raise FileFormatError(
                    "action generator %s is not a dart permutation" % name
                )
            lines.append("action %s %s" % (name, " ".join(map(str, perm))))
    if voltages is not None:
        g = voltages.group
        if not g.name:
            raise FileFormatError("deck group has no serializable name")
        lines.append("group %s" % g.name)
        filled = {}
        for x, y in m._edge_orbits:
            if x in voltages.voltage:
                filled[x] = voltages.voltage[x]
            elif y in voltages.voltage:
                filled[x] = g.inv(voltages.voltage[y])
            else:
                filled[x] = g.identity
            filled[y] = g.inv(filled[x])
        va = type(voltages)(g, filled, voltages.meridians).validated(d)
        for x, _ in m._edge_orbits:
            w = va.voltage[x]
            if w != g.identity:
                lines.append("voltage %d %s" % (x, _element_token(w)))
        for v in sorted(va.meridians, key=lambda c: c.dart):
            w = va.meridians[v]
            if w != g.identity:
                lines.append("meridian %d %s" % (v.dart, _element_token(w)))
    for cell, order in cones:
        lines.append("cone %s %d %d" % (cell.kind, cell.dart, order))
    if expected is not None:
        genus, ks = expected
        lines.append(
            "expected %d %s" % (genus, " ".join("?" if k is None else str(k) for k in ks))
        )
    return "\n".join(lines) + "\n"


_INTEGER = re.compile(r"0|-?[1-9][0-9]*")


def read_ints(tokens) -> list[int]:
    """The integers written by ``tokens``, each in ASCII ``0|-?[1-9][0-9]*``.

    ``int`` also reads a ``+`` sign, ``_`` separators, leading zeros,
    ``-0`` and non-ASCII digits, which would not be written back the
    same.  A few scans of the joined row reject them, with no Python-level
    work per token: every token that starts with ``0`` must be ``0``
    itself.  The regex runs only to name the bad token.
    """
    row = " " + " ".join(tokens)
    if (
        row.isascii()
        and "+" not in row
        and "_" not in row
        and "-0" not in row
        and row.count(" 0") == tokens.count("0")
    ):
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
    for tok in tokens:
        if not _INTEGER.fullmatch(tok):
            raise FileFormatError("%r is not an integer" % tok)
    raise FileFormatError("integer too long")


def _read_row(row: str) -> list[int]:
    """The integers of ``row``, the text of a line after its key,
    accepted exactly as :func:`read_ints` accepts ``row.split()``.

    A row of ASCII digits, ``-`` and spaces without ``-0`` is read in one
    call of the JSON scanner, its spaces turned into commas.  Between the
    brackets there are then only digits, ``-`` and commas, so the scanner
    can read nothing but integers, and JSON's integer grammar,
    ``-?(0|[1-9][0-9]*)``, is this format's once ``-0`` is excluded.  Any
    other row, and any row the scanner rejects (an empty token from a
    double space, ``00``, ``1-2``, an integer longer than ``int`` reads),
    goes to :func:`read_ints`, which names the error.
    """
    if row.isascii() and not row.encode().translate(None, b"0123456789- ") and "-0" not in row:
        try:
            return json.loads("[" + row.replace(" ", ",") + "]")
        except ValueError:
            pass
    return read_ints(row.split())


def read_int(tok: str) -> int:
    """One integer token, accepted exactly as :func:`read_ints` accepts it.

    Single-token fields are mostly darts, so plain digits with no leading
    zero skip the row scans: one ``edge``, ``voltage`` or ``meridian``
    line per edge makes those scans cost more than the token itself.
    """
    if _is_plain_natural(tok):
        return int(tok)
    return read_ints((tok,))[0]


def _is_plain_natural(tok: str) -> bool:
    """Whether ``tok`` is ASCII digits with no leading zero, short enough
    that ``int`` reads it under any digit limit; a longer one goes to
    :func:`read_ints`, which reports it."""
    return tok.isdigit() and tok.isascii() and (tok[0] != "0" or tok == "0") and len(tok) < 19


# the codes of the colors an ``edge`` line may name: all but scaffold
_EDGE_COLORS = {name: c for c, name in enumerate(COLOR_NAMES) if c != SCAFFOLD}


def parse_diagram_file(text: str) -> DiagramFile:
    rows = [
        (i, ln) for i, ln in enumerate(map(str.strip, text.splitlines()), 1)
        if ln and ln[0] != "#"
    ]
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
    colors = []  # (lineno, dart, color code)
    marked = None  # (lineno, darts)
    group = None
    action_rows = []  # (lineno, name, permutation)
    voltage_rows = []  # (lineno, dart, token)
    meridian_rows = []  # (lineno, dart, token)
    cone_rows = []  # (lineno, kind, dart, order)
    expected = None
    for lineno, ln in rows[1:]:
        key, _, rest = ln.partition(" ")
        if key == "edge":
            # the short path of ``edge <dart> <color>``; any other edge
            # line takes the checks below
            tok, _, name = rest.partition(" ")
            c = _EDGE_COLORS.get(name)
            if c is not None and _is_plain_natural(tok):
                colors.append((lineno, int(tok), c))
                continue
        elif not key.isalpha():  # whitespace other than one space ends the key
            key, _, rest = " ".join(ln.split()).partition(" ")
        try:
            if key == "darts":
                parts = rest.split()
                if n is not None or len(parts) != 1:
                    raise FileFormatError("bad darts line")
                n = read_int(parts[0])
            elif key == "pairing":
                if pairing is not None:
                    raise FileFormatError("duplicate pairing line")
                pairing = _read_row(rest)
            elif key == "rotation":
                if rotation is not None:
                    raise FileFormatError("duplicate rotation line")
                rotation = _read_row(rest)
            elif key == "edge":
                parts = rest.split()
                if len(parts) != 2:
                    raise FileFormatError("bad edge line %r" % ln)
                dart = read_int(parts[0])
                try:
                    c = parse_color(parts[1])
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
                marked = (lineno, _read_row(rest))
            elif key == "group":
                if group is not None:
                    raise FileFormatError("duplicate group line")
                try:
                    group = group_by_name(" ".join(rest.split()))
                except GroupError as err:
                    raise FileFormatError(str(err))
            elif key == "action":
                name_row = rest.split(None, 1)
                if len(name_row) < 2:
                    raise FileFormatError("bad action line %r" % ln)
                action_rows.append((lineno, name_row[0], _read_row(name_row[1])))
            elif key == "voltage":
                parts = rest.split()
                if len(parts) != 2:
                    raise FileFormatError("bad voltage line %r" % ln)
                voltage_rows.append((lineno, read_int(parts[0]), parts[1]))
            elif key == "meridian":
                parts = rest.split()
                if len(parts) != 2:
                    raise FileFormatError("bad meridian line %r" % ln)
                meridian_rows.append((lineno, read_int(parts[0]), parts[1]))
            elif key == "cone":
                parts = rest.split()
                if len(parts) != 3:
                    raise FileFormatError("bad cone line %r" % ln)
                cone_rows.append((lineno, parts[0], *read_ints(parts[1:])))
            elif key == "expected":
                if expected is not None:
                    raise FileFormatError("duplicate expected line")
                parts = rest.split()
                if len(parts) != 4:
                    raise FileFormatError("bad expected line %r" % ln)
                ks = tuple(None if p == "?" else read_int(p) for p in parts[1:])
                expected = (read_int(parts[0]), ks)
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
    for lineno, dart, c in colors:
        if not (0 <= dart < n and dart < ep[dart]):
            raise FileFormatError(
                "line %d: edge %d is not an edge representative" % (lineno, dart)
            )
        if dart_colors[dart] != SCAFFOLD:  # no edge line names scaffold
            raise FileFormatError("line %d: edge %d colored twice" % (lineno, dart))
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
        from .symmetry import DiagramAction, base_darts

        darts = list(range(n))
        for lineno, name, perm in action_rows:
            if sorted(perm) != darts:
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
        from .cover import CoverError, VoltageAssignment

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
