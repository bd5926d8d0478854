"""Modules that one CLI verb or one catalog builder alone needs load
with it, not with ``import etd.cli``.  Each check runs in a fresh
interpreter, so that no other test has loaded them first."""

import os
import subprocess
import sys
from pathlib import Path

from test_catalog import frozen_text

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
# what bench/run.py imports at set-up
HARNESS = ("cli", "catalog", "diagio", "diagram", "invariants", "quotient", "symmetry")
DEFERRED = ("etd.cover", "etd.triang", "etd.torus", "etd.surgery", "etd.planar")


def python(*argv, stdin=None):
    return subprocess.run(
        [sys.executable, *argv], env=ENV, input=stdin, capture_output=True, text=True
    )


def test_importing_the_harness_modules_loads_no_deferred_module():
    run = python(
        "-c",
        "import importlib, sys\n"
        "for m in %r:\n"
        "    importlib.import_module('etd.' + m)\n"
        "print(' '.join(sorted(m for m in %r if m in sys.modules)))\n" % (HARNESS, DEFERRED)
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "\n"


def test_every_traced_name_resolves_before_a_verb_runs():
    run = python(
        "-c",
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "import etd.cli\n"
        "from tracing import CLI_SPANS\n"
        "missing = [n for n in CLI_SPANS if not callable(getattr(etd.cli, n, None))]\n"
        "print(missing, hasattr(etd.cli, 'no_such_name'))\n" % str(ROOT / "bench")
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[] False\n"


def test_a_deferred_error_class_exits_2_whoever_loaded_its_module():
    """The reader loads cover for a voltage block; a CoverError raised
    after that still counts as a semantic failure."""
    run = python(
        "-c",
        "import sys, etd.cli, etd.diagio\n"
        "etd.diagio.parse_diagram_file(sys.stdin.read())\n"
        "print('CoverError' in vars(etd.cli), 'etd.triang' in sys.modules,\n"
        "      issubclass(sys.modules['etd.cover'].CoverError, etd.EtdError))\n",
        stdin=frozen_text("q8_link_base.diagram"),
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False False True\n"


def test_triang_on_a_broken_file_exits_2_without_a_traceback(tmp_path):
    p = tmp_path / "bad.tri"
    p.write_text(frozen_text("double_4_simplex.tri").replace("vertices 5\n", "vertices 6\n"))
    run = python("-m", "etd.cli", "triang", str(p), "--oracle")
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == "error: unused vertices: 5\n"


def test_lift_whose_cover_fails_exits_2_without_a_traceback(tmp_path):
    text = frozen_text("q8_link_base.diagram")
    assert "\nmeridian 0 i\n" in text
    p = tmp_path / "bad.diagram"
    p.write_text(text.replace("\nmeridian 0 i\n", "\nmeridian 0 j\n"))
    run = python("-m", "etd.cli", "lift", str(p))
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == "error: declared meridians are inconsistent with the voltages\n"
    assert not (tmp_path / "bad.lift.diagram").exists()
