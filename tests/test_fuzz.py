"""Seeded fuzzing of the CLI on mutated frozen fixture files (diagrams
and triangulations): every input ends in an exit code of the 0/1/2
contract, never in a traceback."""

import random

import pytest

from etd.catalog import FROZEN_NAMES
from etd.cli import main
from test_catalog import frozen_text

VERBS = ("validate", "invariants", "quotient", "lift")
CASES_PER_FILE = 40
TAILS = (
    b"\xff\xfe", b"\x00", b"\xc3", b" 7", b"\n", b" x", b"\nedge 0 alpha1", b"\ncone vertex 0 2",
    b"\nedge %s alpha1" % (b"9" * 5000),  # more digits than int reads
    "\ngroup cyclic \u0662".encode(), b"\ngroup cyclic 02",  # orders str does not write
)
TRI_NAMES = ("double_4_simplex", "boundary_5_simplex", "cyclic_7_5")
TRI_FLAGS = (["--oracle"], ["--oracle", "--json"])
TRI_TAILS = TAILS + (b"\ngenerator", b"\nglue -1 0 1 0", b"\nglue 0 7 1 0", b"\nvertices 99")


def mutate(text: str, rng: random.Random, tails=TAILS) -> bytes:
    """One to three random edits: swap two tokens, drop a token, drop a
    line, or append bytes (some of them not UTF-8)."""
    lines = [ln.split(" ") for ln in text.splitlines()]
    tail = b""
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        i = rng.randrange(len(lines))
        j = rng.choice((i, rng.randrange(len(lines))))
        if kind == 0 and lines[i] and lines[j]:
            a, b = rng.randrange(len(lines[i])), rng.randrange(len(lines[j]))
            lines[i][a], lines[j][b] = lines[j][b], lines[i][a]
        elif kind == 1 and lines[i]:
            del lines[i][rng.randrange(len(lines[i]))]
        elif kind == 2 and len(lines) > 1:
            del lines[i]
        else:
            tail += rng.choice(tails)
    return "\n".join(" ".join(ln) for ln in lines).encode() + b"\n" + tail


def assert_contract(argv, capsys, where):
    try:
        code = main(argv)
    except Exception as err:  # a traceback breaks the contract
        pytest.fail("%s raised %r" % (where, err))
    err = capsys.readouterr().err
    assert code in (0, 1, 2), where
    assert "Traceback" not in err
    return code


@pytest.mark.parametrize("name", FROZEN_NAMES)
def test_mutated_fixtures_keep_the_exit_code_contract(tmp_path, capsys, name):
    rng = random.Random(name)
    text = frozen_text(name + ".diagram")
    path = tmp_path / "fuzz.diagram"
    out = tmp_path / "out.diagram"
    for case in range(CASES_PER_FILE):
        data = mutate(text, rng)
        path.write_bytes(data)
        for verb in VERBS:
            argv = [verb, str(path)] + (["--out", str(out)] if verb in ("quotient", "lift") else [])
            assert_contract(argv, capsys, "%s case %d %s" % (name, case, verb))


@pytest.mark.parametrize("name", TRI_NAMES)
def test_mutated_triangulations_keep_the_exit_code_contract(tmp_path, capsys, name):
    rng = random.Random(name)
    text = frozen_text(name + ".tri")
    path = tmp_path / "fuzz.tri"
    for case in range(CASES_PER_FILE):
        path.write_bytes(mutate(text, rng, TRI_TAILS))
        for flags in TRI_FLAGS:
            argv = ["triang", str(path)] + flags
            assert_contract(argv, capsys, "%s case %d %s" % (name, case, " ".join(flags)))


def edit_triangulation(text: str, rng: random.Random) -> str:
    """One or two edits that keep every glue line consistent with the
    pentachora it names: relabel the vertices by a permutation (the
    generators conjugated by it), change one generator image, swap two
    pentachora together with their glue indices, or drop one glue line
    (a parse error: every shared facet takes one)."""
    rows = [ln.split() for ln in text.splitlines()]
    n = int(next(r[1] for r in rows if r[0] == "vertices"))
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(4)
        of_kind = [r for r in rows if r[0] == (None, "generator", "pentachoron", "glue")[kind]]
        if kind == 0:
            perm = list(range(n))
            rng.shuffle(perm)
            for r in rows:
                if r[0] in ("pentachoron", "surface"):
                    r[1:] = [str(perm[int(v)]) for v in r[1:]]
                elif r[0] == "generator":
                    image = [0] * n
                    for v, w in enumerate(r[2:]):
                        image[perm[v]] = perm[int(w)]
                    r[2:] = map(str, image)
        elif kind == 1 and of_kind:
            r = rng.choice(of_kind)
            r[2 + rng.randrange(n)] = str(rng.randrange(n))
        elif kind == 2 and len(of_kind) > 1:
            i, j = rng.sample(range(len(of_kind)), 2)
            of_kind[i][1:], of_kind[j][1:] = of_kind[j][1:], of_kind[i][1:]
            swap = {str(i): str(j), str(j): str(i)}
            for r in rows:
                if r[0] == "glue":
                    r[1], r[3] = swap.get(r[1], r[1]), swap.get(r[3], r[3])
        elif kind == 3 and of_kind:
            rows.remove(rng.choice(of_kind))
    return "\n".join(" ".join(r) for r in rows) + "\n"


@pytest.mark.parametrize("name", TRI_NAMES)
def test_consistent_triangulation_edits_reach_the_semantic_checks(tmp_path, capsys, name):
    rng = random.Random("consistent " + name)
    text = frozen_text(name + ".tri")
    path = tmp_path / "fuzz.tri"
    codes = set()
    for case in range(CASES_PER_FILE):
        edited = edit_triangulation(text, rng)
        # every fourth case also takes the token-level edits of ``mutate``,
        # so parse errors are in the set too
        data = mutate(edited, rng, TRI_TAILS) if case % 4 == 3 else edited.encode()
        path.write_bytes(data)
        argv = ["triang", str(path), "--oracle"]
        codes.add(assert_contract(argv, capsys, "%s case %d" % (name, case)))
    assert codes == {0, 1, 2}
