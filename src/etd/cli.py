"""Command-line front end: ``etd <command> [args]``.

Commands operate on the line-oriented diagram and triangulation file
formats (see :mod:`etd.diagio` and :mod:`etd.triang`) and share one
exit-code contract so batch runs can triage:

    0  success / fully valid (and ``--help``)
    1  a ``FileFormatError`` (unreadable input), an ``OutputError`` (an
       unwritable output file), a closed standard output (``etd validate
       FILE | head -1``) or a usage error
    2  any other :class:`etd.EtdError`: invalid diagram, mismatch, ...

``--json`` emits a structured report instead of text; JSON reports carry
a ``format`` key ("etd-report 1").  The environment variable
``ETD_TIER2_BUDGET`` overrides the default search budget of the
curve-standardization tier of validation, for ``validate`` and ``lift``
(unless ``--tier2-budget`` is given) and for the quotient that
``quotient`` validates.

Each module that one verb alone needs loads when that verb first runs:
:mod:`etd.cover` with ``lift`` and :mod:`etd.triang` with ``triang``.
The names the verbs call from them are still attributes of this module
before then; reading one loads its module.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys

from . import EtdError
from .catalog import FROZEN_NAMES, STANDARD_NAMES, UnknownName, entry_file_text
from .diagio import FileFormatError, parse_diagram_file, serialize_diagram
from .diagram import validate_trisection
from .invariants import h1_mod_curves
from .quotient import demoted_diagram, quotient, quotient_is_trisection

REPORT_FORMAT = "etd-report 1"

OK = 0
PARSE_ERROR = 1
SEMANTIC_ERROR = 2

# The modules that one verb alone needs: module -> the names its verb
# calls here.  The verbs call these names from this module's globals,
# so a patch of them (bench/tracing.py) holds.
_DEFERRED = {
    "cover": ("derived_cover", "expected_lift_parameters"),
    "triang": ("parse_triangulation", "sigma_oracle", "trisection_parameters"),
}


def _load(module):
    """Import ``module`` and bind its deferred names here; a name that
    is bound already (a patch) is kept."""
    bound, names = globals(), _DEFERRED[module]
    if all(map(bound.__contains__, names)):
        return
    mod = importlib.import_module("." + module, __package__)
    for name in names:
        bound.setdefault(name, getattr(mod, name))


def __getattr__(name):
    """A deferred name, read before its verb has run: load its module."""
    for module, names in _DEFERRED.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _tier2_budget(given=None):
    """The tier-2 budget: ``given`` (from ``--tier2-budget``) if set, else
    ``ETD_TIER2_BUDGET``, else 10000."""
    if given is not None:
        return given
    raw = os.environ.get("ETD_TIER2_BUDGET")
    if raw is None:
        return 10_000
    try:
        return int(raw)
    except ValueError:
        raise FileFormatError("ETD_TIER2_BUDGET must be an integer, got %r" % raw)


def _read(path):
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as err:
        raise FileFormatError(str(err))
    except UnicodeDecodeError as err:
        raise FileFormatError("%s: %s" % (path, err))


class OutputError(EtdError):
    """An output file that cannot be written."""


def _write(path, text):
    """Write ``text`` to ``path``, creating its directory first; any
    OSError becomes an OutputError naming the path."""
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise OutputError("cannot write %s: %s" % (path, err)) from None


def _report_dict(report):
    return {
        "format": REPORT_FORMAT,
        "genus": report.genus,
        "k": list(report.k),
        "ok": report.ok,
        "chi_x": report.chi_x,
        "chi_surface": report.chi_surface,
        "cuts": {
            str(i): {
                "valid": v.valid,
                "tight": v.tight,
                "curves": v.n_curves,
                "reason": v.reason,
            }
            for i, v in report.cut_verdicts.items()
        },
        "pairs": {
            str(i): {"tier": v.tier, "k": v.k, "reason": v.reason}
            for i, v in report.pair_verdicts.items()
        },
        "bridge": (
            {"b": report.shadow_verdict.b, "p": list(report.shadow_verdict.p)}
            if report.shadow_verdict and report.shadow_verdict.p
            else None
        ),
        "structural_errors": list(report.structural_errors),
    }


def _emit(args, payload, text):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _expected_block(report, expected):
    """The ``expected`` report entry: a file's (genus, k) block and whether
    the report matches it (a None k slot matches anything)."""
    genus, ks = expected
    matches = report.genus == genus and all(
        want is None or want == got for want, got in zip(ks, report.k)
    )
    return {"genus": genus, "k": list(ks), "matches": matches}


def cmd_validate(args) -> int:
    df = parse_diagram_file(_read(args.path))
    report = validate_trisection(df.diagram, tier2_budget=_tier2_budget(args.tier2_budget))
    payload = _report_dict(report)
    if df.expected is not None:
        payload["expected"] = _expected_block(report, df.expected)
    _emit(args, payload, report.summary())
    return OK if report.ok else SEMANTIC_ERROR


def cmd_invariants(args) -> int:
    df = parse_diagram_file(_read(args.path))
    d = df.diagram
    h1 = h1_mod_curves(d, (1, 2, 3))
    handlebodies = {i: h1_mod_curves(d, (i,)) for i in (1, 2, 3)}
    payload = {
        "format": REPORT_FORMAT,
        "genus": d.surface.genus(),
        "h1": str(h1),
        "handlebody_h1": {str(i): str(v) for i, v in handlebodies.items()},
    }
    lines = [
        "genus %d" % d.surface.genus(),
        "H1(X) = %s" % h1,
    ] + ["H1 side %d = %s" % (i, handlebodies[i]) for i in (1, 2, 3)]
    _emit(args, payload, "\n".join(lines))
    return OK


def cmd_catalog(args) -> int:
    if args.name == "list":
        print("\n".join(STANDARD_NAMES + FROZEN_NAMES))
        return OK
    try:
        text = entry_file_text(args.name)
    except UnknownName as err:
        print("unknown catalog name: %s" % err, file=sys.stderr)
        return SEMANTIC_ERROR
    if args.write:
        out = os.path.join(args.write, args.name + ".diagram")
        _write(out, text)
        print("wrote %s" % out)
    else:
        sys.stdout.write(text)
    return OK


def _out_path(args, suffix):
    if args.out:
        return args.out
    base = args.path
    if base.endswith(".diagram"):
        base = base[: -len(".diagram")]
    return base + "." + suffix + ".diagram"


def cmd_quotient(args) -> int:
    df = parse_diagram_file(_read(args.path))
    if df.action is None:
        print("file carries no action block", file=sys.stderr)
        return SEMANTIC_ERROR
    subgroup = None
    if args.subgroup:
        by_name = dict(zip(df.action.names, df.action.generators))
        missing = [n for n in args.subgroup if n not in by_name]
        if missing:
            print("unknown generator names: %s" % ", ".join(missing), file=sys.stderr)
            return SEMANTIC_ERROR
        subgroup = [by_name[n] for n in args.subgroup]
    q = quotient(df.diagram, df.action, subgroup)
    verdict, report = quotient_is_trisection(q, tier2_budget=_tier2_budget())
    out = _out_path(args, "quotient")
    _write(
        out, serialize_diagram(demoted_diagram(q), cones=q.cone_points, action=q.induced_action)
    )
    payload = _report_dict(report)
    payload["verdict"] = verdict
    payload["cone_orders"] = q.cone_orders()
    payload["subgroup_order"] = q.subgroup_order
    payload["output"] = out
    text = "wrote %s\nsubgroup order %d, cone orders %s\nverdict: %s\n%s" % (
        out,
        q.subgroup_order,
        q.cone_orders(),
        verdict,
        report.summary(),
    )
    _emit(args, payload, text)
    return OK


def cmd_lift(args) -> int:
    _load("cover")
    df = parse_diagram_file(_read(args.path))
    if df.voltages is None:
        print("file carries no voltage block", file=sys.stderr)
        return SEMANTIC_ERROR
    expected_genus, _ = expected_lift_parameters(df.diagram, df.voltages)
    cover = derived_cover(df.diagram, df.voltages)
    report = validate_trisection(cover.diagram, tier2_budget=_tier2_budget(args.tier2_budget))
    out = _out_path(args, "lift")
    _write(out, serialize_diagram(cover.diagram))
    payload = _report_dict(report)
    payload["output"] = out
    payload["riemann_hurwitz_genus"] = expected_genus
    lines = ["wrote %s" % out, report.summary()]
    code = OK if report.ok else SEMANTIC_ERROR
    if args.check_expected:
        if df.expected is None:
            print("no expected block to check", file=sys.stderr)
            return SEMANTIC_ERROR
        payload["expected"] = exp = _expected_block(report, df.expected)
        genus, ks = df.expected
        lines.append("expected (%s; %s): %s" % (genus, ks, "ok" if exp["matches"] else "MISMATCH"))
        if not exp["matches"]:
            code = SEMANTIC_ERROR
    _emit(args, payload, "\n".join(lines))
    return code


def cmd_triang(args) -> int:
    _load("triang")
    K = parse_triangulation(_read(args.path))
    report = trisection_parameters(K)
    payload = {
        "format": REPORT_FORMAT,
        "genus": report.genus,
        "k": list(report.k),
        "chi": report.chi_simplex,
        "bridge": [{"b": b, "p": list(p)} for b, p in report.bridge],
        "notes": report.notes,
    }
    lines = [report.summary(), "chi(X) = %d = %d" % (report.chi_simplex, report.chi_trisection)]
    code = OK
    if args.oracle:
        og = sigma_oracle(K)
        payload["oracle_genus"] = og
        lines.append(
            "oracle genus %d (%s)" % (og, "agrees" if og == report.genus else "MISMATCH")
        )
        if og != report.genus:
            code = SEMANTIC_ERROR
    _emit(args, payload, "\n".join(lines))
    return code


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with PARSE_ERROR;
    subcommand parsers take the class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(PARSE_ERROR, "%s: error: %s\n" % (self.prog, message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``etd`` argument parser, built once per process."""
    ap = _Parser(prog="etd", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a diagram file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.add_argument("--tier2-budget", type=int, default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", help="homology of a diagram file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("catalog", help="emit a named fixture ('list' to enumerate)")
    p.add_argument("name")
    p.add_argument("--write", metavar="DIR", default=None)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("quotient", help="quotient a diagram by a subgroup of its action")
    p.add_argument("path")
    p.add_argument("--subgroup", nargs="+", metavar="NAME", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("lift", help="build the branched cover of a voltage diagram")
    p.add_argument("path")
    p.add_argument("--check-expected", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--tier2-budget", type=int, default=None)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("triang", help="trisection parameters of a triangulation file")
    p.add_argument("path")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_triang)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the stdlib recipe: point stdout at devnull, so that the flush at
        # exit does not meet the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return PARSE_ERROR
    except FileFormatError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return PARSE_ERROR
    except OutputError as err:
        print("error: %s" % err, file=sys.stderr)
        return PARSE_ERROR
    except EtdError as err:
        print("error: %s" % err, file=sys.stderr)
        return SEMANTIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
