import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from etd.cli import main
from etd.catalog import entry, entry_file_text, q8_reductions
from etd.cmap import CombMap
from etd.diagio import parse_diagram_file, serialize_diagram
from etd.diagram import ShadowDiagram
from test_catalog import frozen_text


def write_catalog(tmp_path, name):
    p = tmp_path / (name + ".diagram")
    p.write_text(entry_file_text(name))
    return p


def test_validate_catalog_file(tmp_path, capsys):
    p = write_catalog(tmp_path, "cp2")
    assert main(["validate", str(p)]) == 0
    out = capsys.readouterr().out
    assert "(1; 0,0,0)" in out


def test_validate_truncated_file(tmp_path, capsys):
    p = tmp_path / "broken.diagram"
    p.write_text(entry_file_text("cp2")[:40])
    assert main(["validate", str(p)]) == 1


@pytest.mark.parametrize(
    "line, bad",
    [("darts", "darts x"), ("pairing", "pairing 1 0 x"), ("edge", "edge y shadow1")],
)
def test_validate_non_integer_field(tmp_path, capsys, line, bad):
    rows = entry_file_text("cp2").splitlines()
    i = next(i for i, r in enumerate(rows) if r.startswith(line + " "))
    rows[i] = bad
    p = tmp_path / "bad.diagram"
    p.write_text("\n".join(rows) + "\n")
    assert main(["validate", str(p)]) == 1
    assert "parse error: line %d:" % (i + 1) in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["validate", "invariants", "quotient", "lift", "triang"])
def test_non_utf8_file_is_a_parse_error(tmp_path, capsys, verb):
    p = tmp_path / "bad.diagram"
    p.write_bytes(b"etd-diagram 1\ndarts 6\n\xff\xfe\n")
    assert main([verb, str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "Traceback" not in err


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/nothing.diagram"]) == 1


def test_usage_error_leaves_the_parser_usable(tmp_path, capsys):
    # the parser is built once per process, so a failed parse must not
    # leave state behind for the next call
    p = write_catalog(tmp_path, "s1xs3")
    for bad in (["validate"], ["nonsense", str(p)], ["validate", str(p), "--tier2-budget", "x"]):
        with pytest.raises(SystemExit) as exit_:
            main(bad)
        assert exit_.value.code == 1  # unreadable input, as the contract says
        assert "error: " in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_:
        main(["validate", "--help"])
    assert exit_.value.code == 0
    capsys.readouterr()
    assert main(["validate", str(p), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["genus"] == 1 and payload["k"] == [1, 1, 1]
    assert main(["invariants", str(p)]) == 0
    assert main(["validate", "/nonexistent/nothing.diagram"]) == 1


def test_validate_broken_cut_system(tmp_path):
    # a bare torus with no curves at all cannot be a trisection diagram
    torus = CombMap(4, [1, 0, 3, 2], [2, 3, 1, 0])
    p = tmp_path / "bare.diagram"
    p.write_text(serialize_diagram(ShadowDiagram(torus, {})))
    assert main(["validate", str(p)]) == 2


def test_validate_json_report(tmp_path, capsys):
    p = write_catalog(tmp_path, "s1xs3")
    assert main(["validate", str(p), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == "etd-report 1"
    assert payload["genus"] == 1 and payload["k"] == [1, 1, 1]
    assert payload["expected"]["matches"] is True


def test_no_tier2_budget_option(tmp_path, monkeypatch, capsys):
    """Tier 2 runs to the end: the old budget flag is an unknown
    argument, and the old budget variable changes no output."""
    p = write_catalog(tmp_path, "cp2")
    with pytest.raises(SystemExit) as exit_:
        main(["validate", str(p), "--tier2-budget", "5"])
    assert exit_.value.code == 1
    assert "unrecognized arguments: --tier2-budget 5" in capsys.readouterr().err
    q = write_catalog(tmp_path, "s2xs2_genus2")
    out = tmp_path / "q.diagram"

    def run():
        codes = [main(["validate", str(p)])]
        codes.append(main(["quotient", str(q), "--subgroup", "g1", "--out", str(out)]))
        return codes, capsys.readouterr(), out.read_text()

    plain = run()
    monkeypatch.setenv("ETD_TIER2_BUDGET", "many")
    assert run() == plain
    assert plain[0] == [0, 0]


def test_invariants_s1xs3(tmp_path, capsys):
    p = write_catalog(tmp_path, "s1xs3")
    assert main(["invariants", str(p)]) == 0
    assert "H1(X) = Z" in capsys.readouterr().out


def test_catalog_write_and_stdout(tmp_path, capsys):
    assert main(["catalog", "d6_s4", "--write", str(tmp_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "d6_s4.diagram"
    assert main(["validate", str(out)]) == 0
    assert "(2; 0,0,2)" in capsys.readouterr().out
    assert main(["catalog", "cp2"]) == 0
    assert parse_diagram_file(capsys.readouterr().out).diagram.surface.genus() == 1


def test_catalog_unknown_name():
    assert main(["catalog", "does_not_exist"]) == 2


def test_catalog_refuses_m_past_ascii_and_the_closure_cap(capsys):
    """A non-ASCII digit or a leading zero is no name; an m whose action
    exceeds the closure cap exits 2 at once instead of building it."""
    for name in ("natural_genus1(m=\u0662)", "natural_genus1(m=02)"):
        assert main(["catalog", name]) == 2
        assert capsys.readouterr().err == "unknown catalog name: %s\n" % name
    assert main(["catalog", "natural_genus1(m=99999999999999999999)"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: m = 99999999999999999999: the order-2m^2 action exceeds 100000 elements\n"
    )


def test_quotient_hyperelliptic(tmp_path, capsys):
    p = write_catalog(tmp_path, "s2xs2_genus2")
    out = tmp_path / "q.diagram"
    assert main(["quotient", str(p), "--subgroup", "g1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "verdict: Yes" in text
    qf = parse_diagram_file(out.read_text())
    assert qf.diagram.surface.genus() == 0
    assert sorted(order for _, order in qf.cones) == [2] * 6


def test_quotient_of_natural_torus_matches_m1(tmp_path):
    p = tmp_path / "m2.diagram"
    p.write_text(entry_file_text("natural_genus1(m=2)"))
    out = tmp_path / "m2q.diagram"
    assert main(["quotient", str(p), "--subgroup", "tx", "ty", "--out", str(out)]) == 0
    small = parse_diagram_file(out.read_text()).diagram
    base = entry("natural_genus1(m=1)").diagram
    assert small.isomorphic_to(base) is not None


def test_quotient_rejects_non_normal_subgroup(tmp_path):
    # for m = 3 the negation is not normalized by the translations
    p = tmp_path / "m3.diagram"
    p.write_text(entry_file_text("natural_genus1(m=3)"))
    assert main(["quotient", str(p), "--subgroup", "nu"]) == 2
    # an order-2 subgroup of the order-8 action of d4_double
    p = write_catalog(tmp_path, "d4_double")
    assert main(["quotient", str(p), "--subgroup", "g2"]) == 2


def test_quotient_needs_action(tmp_path):
    p = write_catalog(tmp_path, "q8_link_base")  # carries voltages, no action
    assert main(["quotient", str(p)]) == 2


def test_quotient_unknown_generator(tmp_path):
    p = write_catalog(tmp_path, "s2xs2_genus2")
    assert main(["quotient", str(p), "--subgroup", "zz"]) == 2


def test_lift_q8_full_cover(tmp_path, capsys):
    p = write_catalog(tmp_path, "q8_link_base")
    out = tmp_path / "lift.diagram"
    code = main(["lift", str(p), "--check-expected", "--out", str(out)])
    assert code == 0
    assert "(17; 5,5,5)" in capsys.readouterr().out
    assert parse_diagram_file(out.read_text()).diagram.surface.genus() == 17


def test_lift_expected_mismatch(tmp_path):
    text = entry_file_text("q8_link_base").replace("expected 17 5 5 5", "expected 17 5 5 4")
    p = tmp_path / "bad.diagram"
    p.write_text(text)
    assert main(["lift", str(p), "--check-expected"]) == 2


def test_lift_needs_voltages(tmp_path):
    p = write_catalog(tmp_path, "cp2")
    assert main(["lift", str(p)]) == 2


@pytest.mark.parametrize("label", ["z2_i", "q8"])
def test_lift_validates_the_voltages_once(tmp_path, capsys, monkeypatch, label):
    import etd.cli
    from etd.cover import VoltageAssignment, derived_cover, expected_lift_parameters

    base, reds = q8_reductions()
    _, va, report = next(r for r in reds if r[0] == label)
    calls, cli_calls = [], []
    validated = VoltageAssignment.validated

    def counted(self, d):
        # a checked assignment asked again gives back itself: count the checks
        out = validated(self, d)
        if out is not self:
            calls.append(d)
        return out

    monkeypatch.setattr(VoltageAssignment, "validated", counted)
    # both run under their names in the CLI namespace, the ones
    # bench/tracing.py times as cover.expected_lift and cover.derived_cover
    for name in ("expected_lift_parameters", "derived_cover"):
        fn = getattr(etd.cli, name)
        monkeypatch.setattr(
            etd.cli, name,
            lambda d, v, fn=fn, name=name, **kw: cli_calls.append((name, kw)) or fn(d, v, **kw),
        )
    p = tmp_path / (label + ".diagram")
    p.write_text(serialize_diagram(base.diagram, voltages=va, expected=(report.genus, report.k)))
    calls.clear()  # the writer validates too
    out = tmp_path / "lift.diagram"
    assert main(["lift", str(p), "--check-expected", "--out", str(out)]) == 0
    assert "expected (%d; %s): ok" % (report.genus, report.k) in capsys.readouterr().out
    assert len(calls) == 1  # the reader's
    assert cli_calls == [("expected_lift_parameters", {}), ("derived_cover", {})]
    # the library entry points still validate what they are given
    calls.clear()
    assert expected_lift_parameters(base.diagram, va)[0] == report.genus
    assert derived_cover(base.diagram, va).diagram.surface.genus() == report.genus
    assert len(calls) == 2


def test_triang_with_oracle(tmp_path, capsys):
    for name, expect in [
        ("boundary_5_simplex", "(181; 19,26,136)"),
        ("double_4_simplex", "(51; 4,6,41)"),
    ]:
        p = tmp_path / (name + ".tri")
        p.write_text(frozen_text(name + ".tri"))
        assert main(["triang", str(p), "--oracle"]) == 0
        out = capsys.readouterr().out
        assert expect in out
        assert "agrees" in out
        assert "chi(X) = 2" in out


def test_triang_open_facet(tmp_path):
    p = tmp_path / "open.tri"
    p.write_text("etd-triangulation 1\nvertices 5\npentachoron 0 1 2 3 4\n")
    assert main(["triang", str(p)]) == 2


def test_triang_parse_error(tmp_path):
    p = tmp_path / "junk.tri"
    p.write_text("not a triangulation\n")
    assert main(["triang", str(p)]) == 1


def _no_traceback(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    return err


def test_validate_bad_family_index_exits_2(tmp_path, capsys):
    text = frozen_text("d4_double.diagram").replace("edge 12 alpha1\n", "edge 12 alpha7\n")
    p = tmp_path / "bad.diagram"
    p.write_text(text)
    assert main(["validate", str(p)]) == 2
    assert "indexed 1..3" in _no_traceback(capsys)


def test_validate_disconnected_map_exits_2(tmp_path, capsys):
    # two disjoint one-vertex tori, four darts each
    two_tori = CombMap(8, [2, 3, 0, 1, 6, 7, 4, 5], [1, 2, 3, 0, 5, 6, 7, 4])
    p = tmp_path / "two_tori.diagram"
    p.write_text(serialize_diagram(ShadowDiagram(two_tori, {})))
    assert main(["validate", str(p)]) == 2
    assert "connected" in _no_traceback(capsys)



@pytest.mark.parametrize(
    "token", ["alpha7", "alphax", "shadow", "beta1", "alpha01", "alpha+1", "alpha\u0663"]
)
def test_bad_color_token_names_its_line(tmp_path, capsys, token):
    text = frozen_text("d4_double.diagram")
    lineno = text.splitlines().index("edge 12 alpha1") + 1
    p = tmp_path / "bad.diagram"
    p.write_text(text.replace("edge 12 alpha1\n", "edge 12 %s\n" % token))
    assert main(["validate", str(p)]) == 2
    assert _no_traceback(capsys).startswith("error: line %d: " % lineno)


def test_invariant_error_exits_2(tmp_path, capsys, monkeypatch):
    import etd.cli
    from etd.invariants import InvariantError

    def broken(d, families):
        raise InvariantError("relation vector is not a cycle")

    monkeypatch.setattr(etd.cli, "h1_mod_curves", broken)
    p = write_catalog(tmp_path, "s1xs3")
    assert main(["invariants", str(p)]) == 2
    assert "not a cycle" in _no_traceback(capsys)


THETA = (
    "etd-diagram 1\n"
    "darts 6\n"
    "pairing 1 0 3 2 5 4\n"
    "rotation 2 5 4 1 0 3\n"
    "edge 0 shadow1\n"
    "edge 2 shadow2\n"
    "edge 4 shadow3\n"
)


@pytest.mark.parametrize(
    "tail, lineno, message",
    [
        pytest.param("edge 1 alpha1", 8, "edge 1 is not an edge representative", id="edge"),
        pytest.param("edge -1 alpha1", 8, "edge -1 is not an edge representative", id="edge_negative"),
        pytest.param("edge 6 alpha1", 8, "edge 6 is not an edge representative", id="edge_range"),
        pytest.param("edge 0 alpha1", 8, "edge 0 colored twice", id="edge_twice"),
        pytest.param("marked 0 1 0", 8, "vertex 0 marked twice", id="marked_vertex_twice"),
        pytest.param(
            "group cyclic 4\nvoltage 2 1\nvoltage 2 3", 10, "edge 2 has two voltages",
            id="voltage_edge_twice",
        ),
        pytest.param(
            "group cyclic 4\nmeridian 1 1\nmeridian 1 3", 10, "vertex 1 has two meridians",
            id="meridian_vertex_twice",
        ),
        pytest.param("marked 0 2", 8, "dart 2 is not a vertex representative", id="marked"),
        pytest.param("marked 0 -6", 8, "dart -6 is not a vertex representative", id="marked_negative"),
        pytest.param("marked 1 6", 8, "dart 6 is not a vertex representative", id="marked_range"),
        pytest.param(
            "group cyclic 4\nvoltage 1 1", 9, "voltage dart 1 is not an edge representative",
            id="voltage_dart",
        ),
        pytest.param(
            "group cyclic 4\nvoltage -1 1", 9, "voltage dart -1 is not an edge representative",
            id="voltage_negative",
        ),
        pytest.param(
            "group cyclic 4\nvoltage 6 1", 9, "voltage dart 6 is not an edge representative",
            id="voltage_range",
        ),
        pytest.param(
            "group cyclic 4\nmeridian 2 1", 9, "meridian dart 2 is not a vertex representative",
            id="meridian_dart",
        ),
        pytest.param(
            "group cyclic 4\nmeridian -6 1", 9, "meridian dart -6 is not a vertex representative",
            id="meridian_negative",
        ),
        pytest.param(
            "group cyclic 4\nmeridian 6 1", 9, "meridian dart 6 is not a vertex representative",
            id="meridian_range",
        ),
        pytest.param(
            "cone vertex 2 2", 8, "cone dart 2 is not a cell representative", id="cone_dart"
        ),
        pytest.param("cone face 7 2", 8, "no face cell at dart 7", id="cone_range"),
        pytest.param("cone corner 0 2", 8, "no corner cell at dart 0", id="cone_kind"),
        pytest.param("cone vertex 0 1", 8, "cone order 1 is below 2", id="cone_order_1"),
        pytest.param("cone vertex 0 0", 8, "cone order 0 is below 2", id="cone_order_0"),
        pytest.param("cone vertex 0 -3", 8, "cone order -3 is below 2", id="cone_order_neg"),
        pytest.param(
            "group cyclic 4\nvoltage 0 -q", 9, "cannot read group element '-q'",
            id="voltage_token",
        ),
        pytest.param(
            "group cyclic 4\nvoltage 0 7", 9, "'7' is not an element of cyclic 4",
            id="voltage_element",
        ),
        pytest.param(
            "group quaternion\nmeridian 0 x", 9, "cannot read group element 'x'",
            id="meridian_token",
        ),
        pytest.param(
            "action t 0 1 2 3 4 4", 8, "action generator t is not a dart permutation",
            id="action_perm",
        ),
        pytest.param("group cyclic x", 8, "unknown group name 'cyclic x'", id="group_name"),
        pytest.param(
            "group cyclic 100000", 8, "group 'cyclic 100000' has order 100000, above 64",
            id="group_order",
        ),
        pytest.param(
            "group cyclic 9 x cyclic 9", 8, "group 'cyclic 9 x cyclic 9' has order 81, above 64",
            id="group_product_order",
        ),
        pytest.param("darts 6", 8, "bad darts line", id="darts_twice"),
        pytest.param("pairing 1 0 3 2 5 4", 8, "duplicate pairing line", id="pairing_twice"),
        pytest.param("rotation 2 5 4 1 0 3", 8, "duplicate rotation line", id="rotation_twice"),
        pytest.param("marked 0\nmarked 0", 9, "duplicate marked line", id="marked_twice"),
        pytest.param("group cyclic 2\ngroup cyclic 2", 9, "duplicate group line", id="group_twice"),
        pytest.param(
            "expected 1 0 0 0\nexpected 1 0 0 0", 9, "duplicate expected line",
            id="expected_twice",
        ),
        pytest.param("color 0 alpha1", 8, "unknown key 'color'", id="unknown_key"),
        pytest.param("edge 0", 8, "bad edge line 'edge 0'", id="bad_edge_line"),
        pytest.param(
            "edge 0 scaffold", 8, "edge 0 is listed as scaffold, the color of unlisted edges",
            id="edge_scaffold",
        ),
    ],
)
def test_position_error_names_its_line(tmp_path, capsys, tail, lineno, message):
    p = tmp_path / "bad.diagram"
    p.write_text(THETA + tail + "\n")
    assert main(["validate", str(p)]) == 1
    assert capsys.readouterr().err == "parse error: line %d: %s\n" % (lineno, message)


@pytest.mark.parametrize(
    "token, message",
    [
        ("+1", "cannot read group element '+1'"),
        ("0x1", "cannot read group element '0x1'"),
        ("True", "cannot read group element 'True'"),
        ("1.0", "cannot read group element '1.0'"),
        ("01", "'01' is not an element of cyclic 3"),
        ("(1,)", "'(1,)' is not an element of cyclic 3"),
    ],
)
def test_group_elements_are_read_as_they_are_written(tmp_path, capsys, token, message):
    # only the exact token serialize_diagram writes for an element names it
    p = tmp_path / "bad.diagram"
    p.write_text(THETA + "marked 0 1\ngroup cyclic 3\nvoltage 0 %s\n" % token)
    assert main(["lift", str(p), "--out", str(tmp_path / "out.diagram")]) == 1
    assert capsys.readouterr().err == "parse error: line 10: %s\n" % message


def test_self_paired_dart_is_a_semantic_error(tmp_path, capsys):
    # every map is closed: a dart its own edge partner is refused
    p = tmp_path / "dangling.diagram"
    p.write_text(THETA.replace("pairing 1 0 3 2 5 4", "pairing 0 1 3 2 5 4"))
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().err == "error: dart 0 has no partner\n"


def test_validate_output_does_not_depend_on_hash_seed(tmp_path):
    """Marked vertices are visited by ascending dart, so the structural
    errors they raise come out in one order under every hash seed."""
    text = entry_file_text("q8_link_base")
    marked = next(r for r in text.splitlines() if r.startswith("marked "))
    d = parse_diagram_file(text).diagram
    extra = [v.dart for v in d.surface.vertices() if v not in d.marked][-2:]
    p = tmp_path / "extra_marks.diagram"
    p.write_text(text.replace(marked, marked + " %d %d" % tuple(extra)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", "import sys, etd.cli; sys.exit(etd.cli.main(sys.argv[1:]))",
             "validate", str(p)],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 2
        assert "has no shadow1 end" in run.stdout
        outs.add(run.stdout)
    assert len(outs) == 1


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    """``etd validate FILE | head -1``: a pipe closed before the report is
    written ends in exit code 1, with nothing on stderr."""
    p = write_catalog(tmp_path, "cp2")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes, so every write fails
    try:
        run = subprocess.run(
            [sys.executable, "-c", "import sys, etd.cli; sys.exit(etd.cli.main(sys.argv[1:]))",
             "validate", str(p)],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert run.returncode == 1
    assert run.stderr == ""


# ---- output files ------------------------------------------------------------


def _writer_argv(verb, tmp_path, out):
    """The argv of ``verb`` writing its output file to ``out``; catalog
    writes ``<its --write dir>/cp2.diagram``, so ``out`` names that file."""
    if verb == "catalog":
        assert out.name == "cp2.diagram"
        return ["catalog", "cp2", "--write", str(out.parent)]
    if verb == "quotient":
        src = write_catalog(tmp_path, "cp2")
        return ["quotient", str(src), "--out", str(out)]
    base, reds = q8_reductions()
    src = tmp_path / "z2_i.diagram"
    src.write_text(serialize_diagram(base.diagram, voltages=reds[0][1]))
    return ["lift", str(src), "--out", str(out)]


@pytest.mark.parametrize("verb", ["catalog", "quotient", "lift"])
def test_output_into_a_missing_directory_creates_it(tmp_path, capsys, verb):
    out = tmp_path / "new" / "deeper" / "cp2.diagram"
    assert main(_writer_argv(verb, tmp_path, out)) == 0
    assert capsys.readouterr().out.startswith("wrote %s\n" % out)
    assert parse_diagram_file(out.read_text()).diagram.surface.n_darts > 0


@pytest.mark.parametrize("verb", ["catalog", "quotient", "lift"])
@pytest.mark.parametrize("blocker", ["target is a directory", "parent is a file"])
def test_unwritable_output_exits_1_without_traceback(tmp_path, capsys, verb, blocker):
    if blocker == "target is a directory":
        out = tmp_path / "taken" / "cp2.diagram"
        out.mkdir(parents=True)
    else:
        (tmp_path / "taken").write_text("a file\n")
        out = tmp_path / "taken" / "cp2.diagram"
    assert main(_writer_argv(verb, tmp_path, out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write %s: " % out)
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1
