"""Spans and counts recorded from outside the program.

A :class:`Tracer` keeps every span in memory as ``(name, start, end,
parent, job)`` and writes them out when the run ends.  Spans are opened
by the benchmark around its own calls into ``etd`` and, during a traced
pass, around the library functions the CLI verbs call: :func:`patched`
swaps those names in the ``etd.cli`` namespace for timing wrappers and
puts the originals back afterwards.  Nothing inside ``etd`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

# Name in the etd.cli namespace -> span name.  Each span name is the
# module the function lives in, a dot, and a short verb.
CLI_SPANS = {
    "parse_diagram_file": "diagio.parse",
    "serialize_diagram": "diagio.serialize",
    "expected_lift_parameters": "cover.expected_lift",
    "derived_cover": "cover.derived_cover",
    "validate_trisection": "diagram.validate",
    "quotient": "quotient.quotient",
    "demoted_diagram": "quotient.demote",
    "quotient_is_trisection": "quotient.is_trisection",
    "h1_mod_curves": "invariants.h1_mod_curves",
    "parse_triangulation": "triang.parse",
    "trisection_parameters": "triang.parameters",
    "sigma_oracle": "triang.sigma_oracle",
}

TOP_SPANS = tuple(CLI_SPANS.values()) + ("cmap.canonical", "cmap.is_isomorphic", "catalog.build")
COUNT_NAMES = (
    "cmap.darts",
    "symmetry.group_order",
    "quotient.subgroup_order",
    "diagram.pairs_verified",
    "diagram.pairs_homology_certified",
    "triang.pentachora",
    "diagio.bytes",
)
BREAKDOWN_SPANS = (
    "diagram.cut_system",
    "diagram.heegaard_pair",
    "diagram.shadow",
    "invariants.surface_h1",
    "symmetry.check_action",
    "symmetry.elements",
)


class NullTracer:
    """The tracer of an untraced pass: spans cost nothing and record nothing."""

    enabled = False

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    """Spans and exact counts of one traced run."""

    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, job id]
        self.counts = defaultdict(lambda: defaultdict(int))  # job id -> name -> n
        self.job = None
        self.seen = []  # (kind, objects) handed to the breakdown of the current job
        self.missing = set()  # breakdown stages the library no longer has
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def call(self, key, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, called by a CLI verb under the name
        ``key``: timed under its span, and counted."""
        with self.span(CLI_SPANS[key]):
            result = fn(*args, **kwargs)
        _after(self, key, args, result)
        return result

    def count(self, name, value):
        self.counts[self.job][name] += value

    def saw(self, kind, *objects):
        self.seen.append((kind, objects))

    def self_times(self):
        """Per span index: its duration minus the time its children cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def write(self, path, summary):
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]
        counts = {job: dict(c) for job, c in self.counts.items()}
        with open(path, "w") as fh:
            json.dump({"summary": summary, "counts": counts, "spans": spans}, fh)


def _count_report(tracer, report):
    tiers = [v.tier for v in report.pair_verdicts.values()]
    tracer.count("diagram.pairs_verified", tiers.count("Verified"))
    tracer.count("diagram.pairs_homology_certified", tiers.count("HomologyCertified"))


def _after(tracer, cli_name, args, result):
    """Counts and breakdown inputs taken at the boundary of one call."""
    if cli_name == "parse_diagram_file":
        tracer.count("diagio.bytes", len(args[0]))
        tracer.count("cmap.darts", result.diagram.surface.n_darts)
    elif cli_name == "serialize_diagram":
        tracer.count("diagio.bytes", len(result))
    elif cli_name == "derived_cover":
        tracer.count("cmap.darts", result.diagram.surface.n_darts)
    elif cli_name == "validate_trisection":
        _count_report(tracer, result)
        tracer.saw("validated", args[0])
    elif cli_name == "h1_mod_curves":
        tracer.saw("surface", args[0].surface)
    elif cli_name == "quotient":
        tracer.count("quotient.subgroup_order", result.subgroup_order)
        tracer.saw("action", args[0], args[1])
    elif cli_name == "quotient_is_trisection":
        _count_report(tracer, result[1])
        tracer.saw("quotient", args[0])
    elif cli_name == "parse_triangulation":
        tracer.count("triang.pentachora", len(result.pentachora))


@contextlib.contextmanager
def patched(cli, tracer):
    """Route the CLI's calls into the library through timing wrappers.

    A name the CLI no longer imports is skipped; its span then reads 0.
    """
    saved = {name: getattr(cli, name) for name in CLI_SPANS if hasattr(cli, name)}
    try:
        for name, fn in saved.items():
            setattr(cli, name, functools.partial(tracer.call, name, fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def breakdown(tracer, etd):
    """Re-call the inner stages on what the last job handed to the
    library, under a parent span of their own, so that they never add
    to job time.  A stage the library no longer has is skipped and
    noted in ``tracer.missing``."""

    def stage(name, owner, attr, *args):
        fn = getattr(owner, attr, None)
        if fn is None:
            tracer.missing.add(name)
            return None
        with tracer.span(name):
            try:
                return fn(*args)
            except etd.diagram.DiagramError:
                # validate_trisection records these as failed verdicts
                return None

    def validation(d):
        for i in (1, 2, 3):
            stage("diagram.cut_system", etd.diagram, "validate_cut_system", d, i)
        for i in (1, 2, 3):
            stage("diagram.heegaard_pair", etd.diagram, "validate_heegaard_pair", d, i, i % 3 + 1)
        stage("diagram.shadow", etd.diagram, "validate_shadow", d)
        stage("invariants.surface_h1", etd.invariants, "surface_h1_mod", d.surface)

    seen, tracer.seen = tracer.seen, []
    done = set()
    with tracer.span("breakdown"):
        for kind, objs in seen:
            key = (kind,) + tuple(map(id, objs))
            if key in done:
                continue
            done.add(key)
            if kind == "validated":
                validation(*objs)
            elif kind == "quotient":
                # quotient_is_trisection validates the demoted quotient
                validation(etd.quotient.demoted_diagram(*objs))
            elif kind == "surface":
                stage("invariants.surface_h1", etd.invariants, "surface_h1_mod", *objs)
            elif kind == "action":
                d, a = objs
                stage("symmetry.check_action", etd.symmetry, "check_action", d, a)
                elems = stage("symmetry.elements", a, "elements")
                if elems is not None:
                    tracer.count("symmetry.group_order", len(elems))


def by_group(tracer):
    """Self time summed by span name, and counts summed by name, for
    each group of job ids: a job id is ``<group>/<job name>``."""
    times = defaultdict(lambda: defaultdict(float))
    for (name, _, _, _, job), t in zip(tracer.spans, tracer.self_times()):
        times[job.split("/")[0]][name] += t
    counts = defaultdict(lambda: dict.fromkeys(COUNT_NAMES, 0))
    for job, c in tracer.counts.items():
        for name, v in c.items():
            counts[job.split("/")[0]][name] += v
    return times, counts
