"""The three workloads: input files written at set-up, jobs, answer checks.

Every job drives a real CLI verb in-process through ``etd.cli.main``
and then checks its answer.  Jobs start from file text, so no diagram
object carries state from one pass into the next.  The workload seed
fixes the dart relabellings used by the isomorphism checks and the
order of the jobs in a pass; it never changes what a job computes.

Why these workloads:

* ``q8_lift`` -- the five voltage covers of the quaternion link base,
  up to the 1712-dart genus-17 lift.  Validation (``diagram``,
  ``invariants``, ``cmap.cut_along``), ``cover`` and
  ``cmap.canonical_form`` do nearly all the work, at the largest sizes.
  Deck groups have at most 8 elements, so this bypasses ``symmetry``
  and ``quotient``.
* ``torus_quotient`` -- ``natural_genus1(m)`` by its translations for
  m in 4, 6, 8, 10 (up to 1200 darts).  Group closure, ``check_action``
  and the normality loop dominate; validating a genus-1 quotient costs
  almost nothing, so this bypasses ``diagram`` and ``invariants``.
  m = 12 alone took 8.8 s when the benchmark was written, so the family
  stops at 10.
* ``fixture_sweep`` -- every verb on every frozen file in
  ``src/etd/data``.  Many small inputs, so per-call and per-diagram
  set-up dominate; the only workload for ``triang`` and for quotients
  with cone points.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Callable


class WrongAnswer(Exception):
    """A job ran to the end but its answer is wrong."""


def expect(cond, message):
    if not cond:
        raise WrongAnswer(message)


@dataclass
class Job:
    name: str
    run: Callable  # run(etd, tracer)


# (darts, genus, (k1, k2, k3)) of each lift: darts are |G| times the 214
# base darts; genus from Riemann-Hurwitz over the eight order-4 branch
# points; k from the lifted Heegaard pairs.
LIFTS = {
    "z2_i": (428, 1, (0, 0, 0)),
    "z2_j": (428, 1, (0, 0, 0)),
    "z2_ij": (428, 3, (1, 1, 1)),
    "z2xz2": (856, 5, (1, 1, 1)),
    "q8": (1712, 17, (5, 5, 5)),
}
TORUS_SIZES = (4, 6, 8, 10)
# genus, (k1, k2, k3) and H1(X) of the frozen diagrams
DIAGRAMS = {
    "d4_double": (2, (2, 2, 2), "Z^2"),
    "d6_double": (2, (2, 2, 2), "Z^2"),
    "d6_s4": (2, (0, 0, 2), "0"),
    "q8_link_base": (0, (0, 0, 0), "0"),
}
# order of the full symmetry action carried by a frozen diagram; the
# expected blocks of these files describe the files themselves (that of
# q8_link_base describes its full lift)
ACTIONS = {"d4_double": 8, "d6_double": 12, "d6_s4": 12}
# all three triangulate the 4-sphere
TRIANGULATIONS = ("boundary_5_simplex", "cyclic_7_5", "double_4_simplex")
LARGEST_JOB = {
    "q8_lift": "lift:q8",
    "torus_quotient": "quotient:m10",
    "fixture_sweep": "triang:cyclic_7_5",
}


def call_cli(etd, argv):
    """Run one verb; return its JSON report, or raise WrongAnswer unless
    it exits 0."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = etd.cli.main([str(a) for a in argv])
    except SystemExit as stop:
        code = stop.code
    expect(code == 0, "etd %s exited %r: %s" % (argv[0], code, err.getvalue().strip()))
    return json.loads(out.getvalue())


def parse(etd, tracer, text):
    # timed like the verbs' own parses, but not counted: the relabelled
    # texts vary in length with the seed, and counts must not
    with tracer.span("diagio.parse"):
        return etd.diagio.parse_diagram_file(text)


def free_group(rank):
    return {0: "0", 1: "Z"}.get(rank, "Z^%d" % rank)


# -- relabelling ------------------------------------------------------------


def seeded_perm(seed, label, n):
    perm = list(range(n))
    random.Random("%d/%s" % (seed, label)).shuffle(perm)
    return perm


def relabel(text, perm):
    """The same diagram file with dart d renamed perm[d].

    Edge and marked lines name the new least dart of their cell, as the
    file format requires.  Only plain diagram files are supported.
    """
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    table = {row[0]: [int(x) for x in row[1:]] for row in rows if row[0] in ("pairing", "rotation")}
    n = len(perm)
    inv = [0] * n
    for d in range(n):
        inv[perm[d]] = d
    pairing = [perm[table["pairing"][inv[d]]] for d in range(n)]
    rotation = [perm[table["rotation"][inv[d]]] for d in range(n)]
    vertex_min = [-1] * n
    for d in range(n):
        if vertex_min[d] < 0:
            orbit = [d]
            while rotation[orbit[-1]] != d:
                orbit.append(rotation[orbit[-1]])
            least = min(orbit)
            for x in orbit:
                vertex_min[x] = least
    out = []
    for row in rows:
        key = row[0]
        if key == "pairing":
            row = [key] + pairing
        elif key == "rotation":
            row = [key] + rotation
        elif key == "edge":
            d = perm[int(row[1])]
            row = [key, min(d, pairing[d]), row[2]]
        elif key == "marked":
            row = [key] + [vertex_min[perm[int(x)]] for x in row[1:]]
        elif key not in ("etd-diagram", "darts", "expected"):
            raise ValueError("cannot relabel %r lines" % key)
        out.append(" ".join(map(str, row)))
    return "\n".join(out) + "\n"


# -- q8_lift ----------------------------------------------------------------


def _lift_job(src, out, label, seed, etd, tracer):
    darts, genus, k = LIFTS[label]
    report = call_cli(etd, ["lift", src, "--check-expected", "--json", "--out", out])
    expect(report["expected"]["matches"], "%s: lift misses its expected block" % label)
    expect(report["riemann_hurwitz_genus"] == genus, "%s: Riemann-Hurwitz genus" % label)
    expect((report["genus"], tuple(report["k"])) == (genus, k),
           "%s: lift is (%s; %s)" % (label, report["genus"], report["k"]))
    text = out.read_text()
    lift = parse(etd, tracer, text).diagram
    expect(lift.surface.n_darts == darts, "%s: lift has %d darts" % (label, lift.surface.n_darts))
    twin = parse(etd, tracer, relabel(text, seeded_perm(seed, label, darts))).diagram
    with tracer.span("cmap.is_isomorphic"):
        iso = lift.isomorphic_to(twin)
    expect(iso is not None, "%s: lift is not isomorphic to its relabelling" % label)


def _dedupe_job(outs, etd, tracer):
    lifts = [parse(etd, tracer, path.read_text()).diagram for path in outs]
    codes = []
    for d in lifts:
        with tracer.span("cmap.canonical"):
            codes.append(d.canonical())
    for a, b in combinations(range(len(lifts)), 2):
        with tracer.span("cmap.is_isomorphic"):
            iso = lifts[a].isomorphic_to(lifts[b])
        expect((codes[a] == codes[b]) == (iso is not None),
               "canonical codes and isomorphism disagree on lifts %d, %d" % (a, b))


def setup_q8_lift(etd, work, seed, tracer):
    with tracer.span("catalog.build"):
        base, reductions = etd.catalog.q8_reductions()
    jobs, outs = [], []
    for label, va, report in reductions:
        src = work / ("%s.diagram" % label)
        src.write_text(etd.diagio.serialize_diagram(
            base.diagram, voltages=va, expected=(report.genus, report.k)))
        out = work / "out" / ("%s.lift.diagram" % label)
        outs.append(out)
        jobs.append(Job("lift:" + label, partial(_lift_job, src, out, label, seed)))
    random.Random(seed).shuffle(jobs)
    return jobs + [Job("dedupe", partial(_dedupe_job, outs))]


# -- torus_quotient -----------------------------------------------------------


def _torus_job(src, out, ref, m, etd, tracer):
    report = call_cli(etd, ["quotient", src, "--subgroup", "tx", "ty", "--json", "--out", out])
    expect(report["verdict"] == "Yes", "m=%d: verdict %s" % (m, report["verdict"]))
    expect(report["cone_orders"] == [], "m=%d: cone orders %s" % (m, report["cone_orders"]))
    expect(report["subgroup_order"] == m * m, "m=%d: subgroup order" % m)
    q = parse(etd, tracer, out.read_text()).diagram
    one = parse(etd, tracer, ref.read_text()).diagram
    with tracer.span("cmap.is_isomorphic"):
        iso = q.isomorphic_to(one)
    expect(iso is not None, "m=%d: quotient is not natural_genus1(1)" % m)


def setup_torus_quotient(etd, work, seed, tracer):
    with tracer.span("catalog.build"):
        entries = {m: etd.catalog.natural_genus1(m) for m in TORUS_SIZES}
        one = etd.catalog.natural_genus1(1).diagram
    ref = work / "m1.diagram"
    ref.write_text(relabel(etd.diagio.serialize_diagram(one),
                           seeded_perm(seed, "m1", one.surface.n_darts)))
    jobs = []
    for m, e in entries.items():
        src = work / ("m%d.diagram" % m)
        src.write_text(etd.diagio.serialize_diagram(
            e.diagram, expected=(e.expected.genus, e.expected.k), action=e.action))
        out = work / "out" / ("m%d.quotient.diagram" % m)
        jobs.append(Job("quotient:m%d" % m, partial(_torus_job, src, out, ref, m)))
    random.Random(seed).shuffle(jobs)
    return jobs


# -- fixture_sweep ------------------------------------------------------------


def _validate_job(src, name, etd, tracer):
    genus, k, _ = DIAGRAMS[name]
    report = call_cli(etd, ["validate", src, "--json"])
    expect(report["ok"], "%s: not valid" % name)
    expect((report["genus"], tuple(report["k"])) == (genus, k),
           "%s: (%s; %s)" % (name, report["genus"], report["k"]))
    if name in ACTIONS:
        expect(report["expected"]["matches"], "%s: misses its expected block" % name)


def _invariants_job(src, name, etd, tracer):
    genus, _, h1 = DIAGRAMS[name]
    report = call_cli(etd, ["invariants", src, "--json"])
    expect(report["genus"] == genus, "%s: genus %s" % (name, report["genus"]))
    expect(report["h1"] == h1, "%s: H1 = %s" % (name, report["h1"]))
    # each side is a handlebody of the surface's genus
    expect(set(report["handlebody_h1"].values()) == {free_group(genus)},
           "%s: handlebody H1 %s" % (name, report["handlebody_h1"]))


def _quotient_job(src, out, name, etd, tracer):
    report = call_cli(etd, ["quotient", src, "--json", "--out", out])
    n = ACTIONS[name]
    expect(report["subgroup_order"] == n, "%s: subgroup order" % name)
    expect(report["ok"] and report["verdict"] in ("Yes", "Certified"),
           "%s: verdict %s" % (name, report["verdict"]))
    q = parse(etd, tracer, out.read_text())
    orders = sorted(order for _, order in q.cones)
    expect(orders == report["cone_orders"], "%s: written cones %s" % (name, orders))
    # Riemann-Hurwitz, exactly: chi(X) = |G| chi(X/G) - sum |G|/m (m - 1)
    chi = 2 - 2 * DIAGRAMS[name][0]
    defect = sum(Fraction(n, m) * (m - 1) for m in orders)
    expect(chi == n * q.diagram.surface.euler_characteristic() - defect,
           "%s: branching count" % name)


def _triang_job(src, name, etd, tracer):
    report = call_cli(etd, ["triang", src, "--oracle", "--json"])
    expect(report["oracle_genus"] == report["genus"], "%s: oracle disagrees" % name)
    expect(report["chi"] == 2 == 2 + report["genus"] - sum(report["k"]),
           "%s: chi %s for (%s; %s)" % (name, report["chi"], report["genus"], report["k"]))


def setup_fixture_sweep(etd, work, seed, tracer):
    data = Path(etd.cli.__file__).parent / "data"
    jobs = []
    for name in DIAGRAMS:
        src = work / ("%s.diagram" % name)
        shutil.copyfile(data / src.name, src)
        jobs.append(Job("validate:" + name, partial(_validate_job, src, name)))
        jobs.append(Job("invariants:" + name, partial(_invariants_job, src, name)))
        if name in ACTIONS:
            out = work / "out" / ("%s.quotient.diagram" % name)
            jobs.append(Job("quotient:" + name, partial(_quotient_job, src, out, name)))
    for name in TRIANGULATIONS:
        src = work / ("%s.tri" % name)
        shutil.copyfile(data / src.name, src)
        jobs.append(Job("triang:" + name, partial(_triang_job, src, name)))
    random.Random(seed).shuffle(jobs)
    return jobs


SETUP = {
    "q8_lift": setup_q8_lift,
    "torus_quotient": setup_torus_quotient,
    "fixture_sweep": setup_fixture_sweep,
}
