import ast
import random
import re
from itertools import combinations

import pytest

from etd.cli import main
from etd.cmap import DisjointSets
from etd.diagio import FileFormatError
from etd.triang import (
    GenusMismatch,
    GTriangulation,
    NonSimplicialAction,
    NotClosedSurface,
    OpenFacet,
    SurfaceNotInvariant,
    TriangError,
    _sigma_counts,
    _sigma_template,
    bridge_parameters,
    parse_triangulation,
    sigma_oracle,
    trisection_parameters,
    validate_triangulation,
)
from test_catalog import frozen_text


def frozen_tri(name):
    """The frozen triangulation ``name``.tri of ``etd.data``."""
    return parse_triangulation(frozen_text(name + ".tri"))


def tetrahedral_sphere():
    """The four triangles on vertices 0..3, a subcomplex of both
    4-sphere files."""
    return list(combinations(range(4), 3))


def test_boundary_five_simplex_counts():
    K = frozen_tri("boundary_5_simplex")
    assert K.counts() == (6, 15, 20, 15, 6)
    assert validate_triangulation(K)


def test_boundary_five_simplex_parameters():
    r = trisection_parameters(frozen_tri("boundary_5_simplex"))
    assert r.k == (19, 26, 136)
    assert r.genus == 181
    assert r.chi_simplex == 2
    assert r.chi_trisection == 2


def test_double_four_simplex_parameters():
    K = frozen_tri("double_4_simplex")
    assert K.counts() == (5, 10, 10, 5, 2)
    r = trisection_parameters(K)
    assert r.k == (4, 6, 41)
    assert r.genus == 51
    assert r.chi_simplex == 2


def test_oracle_agrees_on_spheres():
    for K in (frozen_tri("boundary_5_simplex"), frozen_tri("double_4_simplex")):
        assert sigma_oracle(K) == trisection_parameters(K).genus


def test_oracle_agrees_on_cyclic_polytope():
    K = frozen_tri("cyclic_7_5")
    r = trisection_parameters(K)
    assert r.chi_simplex == 2
    assert sigma_oracle(K) == r.genus == 379


def conjugated_generators(K, perm):
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return [
        tuple(perm[g[inv[x]]] for x in range(K.n_vertices)) for g in K.generators
    ]


def test_parameters_invariant_under_relabeling():
    rng = random.Random(7)
    for K in (frozen_tri("boundary_5_simplex"), frozen_tri("cyclic_7_5")):
        base = trisection_parameters(K)
        for _ in range(5):
            perm = list(range(K.n_vertices))
            rng.shuffle(perm)
            K2 = GTriangulation(
                K.n_vertices,
                [tuple(perm[v] for v in p) for p in K.pentachora],
                conjugated_generators(K, perm),
                K.generator_names,
                [[tuple(perm[v] for v in tri) for tri in s] for s in K.surfaces],
            )
            r2 = trisection_parameters(K2)
            assert (r2.genus, r2.k, r2.bridge) == (base.genus, base.k, base.bridge)
            assert sigma_oracle(K2) == base.genus


def test_open_facet_rejected():
    with pytest.raises(OpenFacet):
        validate_triangulation(GTriangulation(5, [tuple(range(5))]))


def test_disconnected_rejected():
    p1 = tuple(range(5))
    p2 = tuple(range(5, 10))
    with pytest.raises(TriangError, match="connected"):
        validate_triangulation(GTriangulation(10, [p1, p1, p2, p2]))


def test_non_simplicial_generator_rejected():
    K = frozen_tri("double_4_simplex")
    bad = GTriangulation(5, K.pentachora, [(0, 1, 2, 3, 3)], ["bad"])
    with pytest.raises(NonSimplicialAction):
        validate_triangulation(bad)


def test_non_pentachoron_preserving_generator_rejected():
    K = frozen_tri("cyclic_7_5")
    # swapping vertices 0 and 1 does not preserve the facet list
    swap01 = (1, 0, 2, 3, 4, 5, 6)
    bad = GTriangulation(7, K.pentachora, [swap01], ["swap01"])
    with pytest.raises(NonSimplicialAction):
        validate_triangulation(bad)


def test_open_surface_in_triangulation_rejected():
    K = frozen_tri("boundary_5_simplex")
    bad = GTriangulation(6, K.pentachora, surfaces=[[(0, 1, 2)]])
    with pytest.raises(NotClosedSurface):
        validate_triangulation(bad)


def test_surface_invariance_checked():
    K = frozen_tri("boundary_5_simplex")
    sphere = tetrahedral_sphere()  # lives on vertices 0..3
    bad = GTriangulation(6, K.pentachora, [(1, 2, 3, 4, 5, 0)], ["cycle"], [sphere])
    with pytest.raises(SurfaceNotInvariant):
        validate_triangulation(bad)


def test_bridge_parameters_tetrahedral_sphere():
    K = frozen_tri("boundary_5_simplex")
    b, p = bridge_parameters(K, tetrahedral_sphere())
    assert (b, p) == (12, (4, 4, 6))
    assert sum(p) - b == 2


def test_bridge_parameters_seven_vertex_torus():
    K = frozen_tri("cyclic_7_5")
    b, p = bridge_parameters(K, K.surfaces[0])
    assert (b, p) == (42, (7, 14, 21))
    assert sum(p) - b == 0


def test_bridge_parameters_additive_on_disjoint_spheres():
    # bridge counting only needs the 2-skeleton, so an unglued carrier
    # complex suffices to host two vertex-disjoint tetrahedral spheres
    K = GTriangulation(10, [tuple(range(5)), tuple(range(5, 10))])
    near = tetrahedral_sphere()
    far = [tuple(v + 5 for v in t) for t in tetrahedral_sphere()]
    b, p = bridge_parameters(K, near + far)
    assert (b, p) == (24, (8, 8, 12))
    assert sum(p) - b == 4


def test_bridge_rejects_open_surface():
    K = frozen_tri("boundary_5_simplex")
    with pytest.raises(NotClosedSurface):
        bridge_parameters(K, tetrahedral_sphere()[:3])


def test_genus_mismatch_on_inconsistent_counts():
    # an impossible tetrahedron count slips past facet validation only
    # through this deliberately broken subclass; the three spine
    # formulas must then disagree
    class Broken(GTriangulation):
        def tetrahedra(self):
            return super().tetrahedra()[:-1]

    K = Broken(5, frozen_tri("double_4_simplex").pentachora)
    with pytest.raises(GenusMismatch):
        trisection_parameters(K)


def test_fixed_vertices_note():
    r = trisection_parameters(frozen_tri("cyclic_7_5"))
    assert any("first sector" in n for n in r.notes)


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("etd-triangulation 1", "etd-triangulation 2"),
        lambda t: t + "frobnicate 1\n",
        lambda t: t + "pentachoron 0 1 2 3\n",
        lambda t: t + "surface 0 1\n",
        lambda t: t.replace("glue 0 4 1 4", "glue 0 4 1 3", 1),
        lambda t: t + "generator\n",
        lambda t: t + "glue -1 0 1 0\n",
        lambda t: t + "glue 0 7 1 0\n",
        lambda t: t + "glue 0 0 6 0\n",
    ],
)
def test_malformed_files_rejected(mutation):
    text = frozen_text("boundary_5_simplex.tri")
    with pytest.raises(FileFormatError):
        parse_triangulation(mutation(text))


def test_parse_errors_name_their_line():
    text = frozen_text("boundary_5_simplex.tri")
    end = len(text.splitlines()) + 1
    double = frozen_text("double_4_simplex.tri")
    dend = len(double.splitlines()) + 1
    cases = [
        (text + "generator\n", "line %d: generator needs a name" % end),
        # pentachora 1 and -1 of the double 4-simplex are the same
        (double + "glue -1 0 1 0\n", "line %d: glue pentachoron index out of range" % dend),
        (double + "glue 0 0 2 0\n", "line %d: glue pentachoron index out of range" % dend),
        (double + "glue 0 7 1 0\n", "line %d: glue facet index out of range 0..4" % dend),
        (text.replace("glue 0 4 1 4", "glue 0 4 1 3"), "line 9: glue (0, 4, 1, 3) does not match"),
        (text.replace("vertices 6", "vertices six"), "line 2: bad line"),
        (text + "# note\n\nfrobnicate 1\n", "line %d: unknown key" % (end + 2)),
        (text.replace("pentachoron 0 1 2 3 5", "pentachoron 0 1 2 3"), "line 4: pentachoron needs"),
        ("\n" + text.replace("triangulation 1", "triangulation 2"), "line 2: expected header"),
    ]
    for bad, message in cases:
        with pytest.raises(FileFormatError, match=re.escape(message)):
            parse_triangulation(bad)


def test_each_shared_facet_takes_exactly_one_glue_line(tmp_path, capsys):
    text = frozen_text("double_4_simplex.tri")
    end = len(text.splitlines()) + 1
    cases = [
        (
            text.replace("glue 0 4 1 4\n", ""),
            "facet (0, 1, 2, 3) of pentachora 0 and 1 has no glue line",
        ),
        (text + "glue 0 4 1 4\n", "line %d: facet (0, 1, 2, 3) is glued twice" % end),
        (text + "glue 1 3 0 3\n", "line %d: facet (0, 1, 2, 4) is glued twice" % end),
        (text + "glue 0 4 0 4\n", "line %d: glue joins pentachoron 0 to itself" % end),
        (text.replace("glue 0 4 1 4", "glue 1 4 1 4"), "line 5: glue joins pentachoron 1 to itself"),
    ]
    p = tmp_path / "bad.tri"
    for bad, message in cases:
        with pytest.raises(FileFormatError, match="^%s$" % re.escape(message)):
            parse_triangulation(bad)
        p.write_text(bad)
        assert main(["triang", str(p), "--oracle"]) == 1
        assert capsys.readouterr().err == "parse error: %s\n" % message
    five = frozen_text("boundary_5_simplex.tri")
    first = next(ln for ln in five.splitlines() if ln.startswith("glue"))
    with pytest.raises(FileFormatError, match="has no glue line$"):
        parse_triangulation(five.replace(first + "\n", ""))


@pytest.mark.parametrize(
    "old, new",
    [
        ("vertices 5", "vertices +5"),
        ("pentachoron 0 1 2 3 4\nglue", "pentachoron 0 1 2 3 ٤\nglue"),
        ("glue 0 4 1 4", "glue 0 4 +1 4"),
        ("generator swap 1 0 2 3 4", "generator swap 1 0 2 3 0_4"),
        ("generator cycle", "surface 0 1 ٢\ngenerator cycle"),
        ("vertices 5", "vertices 05"),
        ("glue 0 4 1 4", "glue -0 4 1 4"),
        ("generator swap 1 0 2 3 4", "generator swap 1 0 2 3 04"),
    ],
)
def test_integers_are_written_as_str_writes_them(tmp_path, old, new):
    # int() reads all of these, but the file would not be written back
    # byte for byte
    text = frozen_text("double_4_simplex.tri")
    lineno = text[: text.index(old)].count("\n") + 1
    bad = text.replace(old, new, 1)
    with pytest.raises(
        FileFormatError, match=r"^line %d: bad line .* is not an integer$" % lineno
    ):
        parse_triangulation(bad)
    p = tmp_path / "bad.tri"
    p.write_text(bad)
    assert main(["triang", str(p), "--oracle"]) == 1


def test_vertex_count_bounded_by_the_pentachora():
    two = frozen_tri("double_4_simplex").pentachora
    with pytest.raises(TriangError, match="11 vertices, but 2 pentachora use at most 10"):
        validate_triangulation(GTriangulation(11, two))
    with pytest.raises(TriangError, match="unused vertices: 5, 6, 7, 8, 9$"):
        validate_triangulation(GTriangulation(10, two))
    six = frozen_tri("boundary_5_simplex").pentachora
    with pytest.raises(
        TriangError, match=re.escape("unused vertices: 6, 7, 8, 9, 10, ... (14 in all)")
    ):
        validate_triangulation(GTriangulation(20, six))


# ---------------------------------------------------------------------------
# differential check of the template assembly against the keyed assembly
# it replaced: every cell a nested-tuple dict key, built pentachoron by
# pentachoron (copied as it stood, minus the validation call)


def keyed_sigma_cells(K):
    edges = {}  # edge id -> (vertex id, vertex id)
    faces = []  # (face id, [edge ids])

    def tet_faces_of(t, e):
        """The two triangles of tetrahedron t containing edge e."""
        other = [v for v in t if v not in e]
        return tuple(sorted(e + (other[0],))), tuple(sorted(e + (other[1],)))

    for t in K.tetrahedra():
        for f in combinations(t, 3):
            for e in combinations(f, 2):
                for v in e:
                    edges[("h", v, e, f, t)] = (("q", v, e, f), ("p", v, e, f, t))
        for e in combinations(t, 2):
            f1, f2 = tet_faces_of(t, e)
            for v in e:
                edges[("s", v, e, t)] = (("p", v, e, f1, t), ("p", v, e, f2, t))

    for ip, penta in enumerate(K.pentachora):
        S = tuple(sorted(penta))
        tets = list(combinations(S, 4))
        for f in combinations(S, 3):
            f_tets = [t for t in tets if set(f) <= set(t)]  # always two
            for e in combinations(f, 2):
                for v in e:
                    edges[("wAq", ip, v, e, f)] = (("q", v, e, f), ("qq", ip, v, e, f))
                    edges[("wCqq", ip, v, e, f)] = (("qq", ip, v, e, f), ("rr", ip, v, e, f))
                    for t in f_tets:
                        c, r = ("c", ip, v, e, f, t), ("r", ip, v, e, f, t)
                        edges[("wAp", ip, v, e, f, t)] = (("p", v, e, f, t), c)
                        edges[("hh", ip, v, e, f, t)] = (("qq", ip, v, e, f), c)
                        edges[("wCc", ip, v, e, f, t)] = (c, r)
                        edges[("hh3", ip, v, e, f, t)] = (("rr", ip, v, e, f), r)
            for t in f_tets:
                for e in combinations(f, 2):
                    v1, v2 = e
                    edges[("m", ip, e, f, t)] = (("r", ip, v1, e, f, t), ("r", ip, v2, e, f, t))
                for v in f:
                    e1, e2 = [e for e in combinations(f, 2) if v in e]
                    edges[("g", ip, v, f, t)] = (("c", ip, v, e1, f, t), ("c", ip, v, e2, f, t))
                    edges[("g3", ip, v, f, t)] = (("r", ip, v, e1, f, t), ("r", ip, v, e2, f, t))
        for t in tets:
            for e in combinations(t, 2):
                f1, f2 = tet_faces_of(t, e)
                for v in e:
                    edges[("ss", ip, v, e, t)] = (
                        ("c", ip, v, e, f1, t),
                        ("c", ip, v, e, f2, t),
                    )

        # 2-cells
        for e in combinations(S, 2):
            e_faces = [f for f in combinations(S, 3) if set(e) <= set(f)]
            e_tets = [t for t in tets if set(e) <= set(t)]
            for v in e:
                for f in e_faces:
                    for t in [t for t in tets if set(f) <= set(t)]:
                        faces.append(
                            (
                                ("Ah", ip, v, e, f, t),
                                [
                                    ("h", v, e, f, t),
                                    ("wAq", ip, v, e, f),
                                    ("hh", ip, v, e, f, t),
                                    ("wAp", ip, v, e, f, t),
                                ],
                            )
                        )
                for t in e_tets:
                    f1, f2 = tet_faces_of(t, e)
                    faces.append(
                        (
                            ("As", ip, v, e, t),
                            [
                                ("s", v, e, t),
                                ("wAp", ip, v, e, f1, t),
                                ("ss", ip, v, e, t),
                                ("wAp", ip, v, e, f2, t),
                            ],
                        )
                    )
        for t in tets:
            for v in t:
                boundary = [("ss", ip, v, e, t) for e in combinations(t, 2) if v in e] + [
                    ("g", ip, v, f, t) for f in combinations(t, 3) if v in f
                ]
                faces.append((("B", ip, v, t), boundary))
        for f in combinations(S, 3):
            f_tets = [t for t in tets if set(f) <= set(t)]
            for v in f:
                for e in [e for e in combinations(f, 2) if v in e]:
                    for t in f_tets:
                        faces.append(
                            (
                                ("Chh", ip, v, e, f, t),
                                [
                                    ("hh", ip, v, e, f, t),
                                    ("wCqq", ip, v, e, f),
                                    ("hh3", ip, v, e, f, t),
                                    ("wCc", ip, v, e, f, t),
                                ],
                            )
                        )
                for t in f_tets:
                    e1, e2 = [e for e in combinations(f, 2) if v in e]
                    faces.append(
                        (
                            ("Cg", ip, v, f, t),
                            [
                                ("g", ip, v, f, t),
                                ("wCc", ip, v, e1, f, t),
                                ("g3", ip, v, f, t),
                                ("wCc", ip, v, e2, f, t),
                            ],
                        )
                    )
            t1, t2 = f_tets
            for e in combinations(f, 2):
                v1, v2 = e
                faces.append(
                    (
                        ("dE", ip, e, f),
                        [
                            ("m", ip, e, f, t1),
                            ("hh3", ip, v1, e, f, t1),
                            ("hh3", ip, v1, e, f, t2),
                            ("m", ip, e, f, t2),
                            ("hh3", ip, v2, e, f, t2),
                            ("hh3", ip, v2, e, f, t1),
                        ],
                    )
                )
            for t in f_tets:
                boundary = [("m", ip, e, f, t) for e in combinations(f, 2)] + [
                    ("g3", ip, v, f, t) for v in f
                ]
                faces.append((("dT", ip, f, t), boundary))
    return edges, faces


def keyed_sigma_oracle(K):
    edges, faces = keyed_sigma_cells(K)

    use = {eid: 0 for eid in edges}
    for _, boundary in faces:
        for eid in boundary:
            use[eid] += 1
    bad = [eid for eid, c in use.items() if c != 2]
    if bad:
        raise TriangError(
            "central surface is not closed at %d cells, e.g. %r" % (len(bad), bad[0])
        )

    verts = {}
    for a, b in edges.values():
        verts.setdefault(a, len(verts))
        verts.setdefault(b, len(verts))
    pieces = DisjointSets(len(verts))
    merges = sum(pieces.union(verts[a], verts[b]) for a, b in edges.values())
    if merges != len(verts) - 1:
        raise TriangError("central surface is disconnected")

    chi = len(verts) - len(edges) + len(faces)
    if chi % 2:
        raise TriangError("central surface has odd Euler characteristic %d" % chi)
    return (2 - chi) // 2


def keyed_counts(K):
    edges, faces = keyed_sigma_cells(K)
    return len({x for ends in edges.values() for x in ends}), len(edges), len(faces)


def cyclic_five_polytope(n):
    """The boundary of the cyclic 5-polytope C(n, 5), a 4-sphere: its
    facets are the 5-sets with an even number of members between any
    two consecutive non-members (Gale's evenness condition)."""
    facets = []
    for S in combinations(range(n), 5):
        gaps = [v for v in range(n) if v not in S]
        if all(sum(a < v < b for v in S) % 2 == 0 for a, b in zip(gaps, gaps[1:])):
            facets.append(S)
    return GTriangulation(n, facets)


def relabelled(K, perm):
    return GTriangulation(K.n_vertices, [tuple(perm[v] for v in p) for p in K.pentachora])


def differential_cases():
    rng = random.Random(13)
    fixtures = [frozen_tri(n) for n in ("double_4_simplex", "boundary_5_simplex", "cyclic_7_5")]
    cases = [pytest.param(K, id="fixture%d" % i) for i, K in enumerate(fixtures)]
    for i, K in enumerate(fixtures):
        for j in range(3):
            perm = list(range(K.n_vertices))
            rng.shuffle(perm)
            cases.append(pytest.param(relabelled(K, perm), id="fixture%d-relabelled%d" % (i, j)))
    cases += [pytest.param(cyclic_five_polytope(n), id="C(%d,5)" % n) for n in (7, 8, 9)]
    return cases


def test_gale_evenness_gives_the_cyclic_fixture():
    K = cyclic_five_polytope(7)
    assert sorted(K.pentachora) == sorted(frozen_tri("cyclic_7_5").pentachora)
    assert [len(cyclic_five_polytope(n).pentachora) for n in (8, 9)] == [20, 30]


@pytest.mark.parametrize("K", differential_cases())
def test_template_assembly_matches_keyed_assembly(K):
    validate_triangulation(K)
    assert _sigma_counts(K) == keyed_counts(K)
    assert sigma_oracle(K) == keyed_sigma_oracle(K) == trisection_parameters(K).genus


@pytest.mark.parametrize("n", [12, 16, 24])
def test_oracle_on_larger_cyclic_polytopes(n):
    K = cyclic_five_polytope(n)
    r = trisection_parameters(K)
    assert r.chi_simplex == 2
    assert sigma_oracle(K) == r.genus


def test_broken_assemblies_name_a_cell_of_the_keyed_assembly():
    """Unvalidated inputs reach the checks: one pentachoron and three
    copies of one leave every depth-0 edge with one or three faces, and
    two separate 4-spheres give a disconnected surface."""
    one = tuple(range(5))
    for pentachora in ([one], [one] * 3, [(6, 0, 5, 2, 3)]):
        K = GTriangulation(7, pentachora)
        edges, faces = keyed_sigma_cells(K)
        use = {}
        for _, boundary in faces:
            for eid in boundary:
                use[eid] = use.get(eid, 0) + 1
        bad = {eid for eid in edges if use.get(eid) != 2}
        with pytest.raises(TriangError, match="not closed at %d cells, e.g. " % len(bad)) as err:
            _sigma_counts(K)
        with pytest.raises(TriangError, match="not closed at %d cells" % len(bad)):
            keyed_sigma_oracle(K)
        assert ast.literal_eval(str(err.value).split("e.g. ")[1]) in bad
    K = GTriangulation(10, [one, one, tuple(range(5, 10)), tuple(range(5, 10))])
    with pytest.raises(TriangError, match="disconnected, e.g. at ") as err:
        _sigma_counts(K)
    with pytest.raises(TriangError, match="disconnected"):
        keyed_sigma_oracle(K)
    vertex = ast.literal_eval(str(err.value).split("e.g. at ")[1])
    assert vertex in {x for ends in keyed_sigma_cells(K)[0].values() for x in ends}


def test_template_piece_is_connected_and_closed_off_its_shared_units():
    """The facts the per-K checks rest on: one pentachoron's piece is
    connected, its own 840 edges border two of its faces each, and each
    tetrahedron slot's faces border each of that tetrahedron's 36 edges
    once, so exactly two pentachora around a tetrahedron close it."""
    vertices, edges, faces, slot_use, components = _sigma_template()
    assert vertices.per_unit == (6, 24, 360) and edges.per_unit == (0, 36, 840)
    assert vertices.bases([10, 5, 1])[3] == 540 and components == 1
    assert faces == 430
    assert slot_use == ((),) * 10 + ((1,) * 36,) * 5 + ((2,) * 840,)


def two_boundary_spheres(shared):
    """Two copies of the boundary of the 5-simplex, the second on
    vertices 0..shared-1 and 6 onwards: they share one simplex on
    ``shared`` vertices (none for 0), and no tetrahedron.  Unvalidated:
    the triangulation is not connected through facets."""
    K = frozen_tri("boundary_5_simplex")
    other = list(range(shared)) + list(range(6, 12 - shared))
    return GTriangulation(12 - shared, K.pentachora + [tuple(other[v] for v in p) for p in K.pentachora])


@pytest.mark.parametrize(
    "shared, apart",
    [
        (3, None),
        (2, ("q", 0, (0, 1), (0, 1, 6))),
        (1, ("q", 0, (0, 6), (0, 6, 7))),
        (0, ("q", 6, (6, 7), (6, 7, 8))),
    ],
    ids=["triangle", "edge", "vertex", "nothing"],
)
def test_spheres_glued_at_one_simplex(shared, apart):
    """A shared triangle joins the two central surfaces; a shared edge or
    vertex does not, since no cell of the surface is shared through an
    edge or a vertex alone.  The template path and the keyed assembly
    agree on every case."""
    K = two_boundary_spheres(shared)
    if apart is None:
        assert _sigma_counts(K) == keyed_counts(K) == (5274, 11160, 5160)
        assert keyed_sigma_oracle(K) == 364 == (2 - (5274 - 11160 + 5160)) // 2
        return
    with pytest.raises(TriangError) as err:
        _sigma_counts(K)
    assert str(err.value) == "central surface is disconnected, e.g. at %r" % (apart,)
    with pytest.raises(TriangError, match="disconnected"):
        keyed_sigma_oracle(K)


def broken_assembly_cases():
    one, other = tuple(range(5)), tuple(range(5, 10))
    B = frozen_tri("boundary_5_simplex").pentachora
    C = frozen_tri("cyclic_7_5").pentachora
    open_at = "central surface is not closed at %d cells, e.g. %r"
    h = ("h", 0, (0, 1))
    return [
        ([one], open_at % (180, h + ((0, 1, 2), (0, 1, 2, 3)))),
        ([one] * 3, open_at % (180, h + ((0, 1, 2), (0, 1, 2, 3)))),
        ([(6, 0, 5, 2, 3)], open_at % (180, ("h", 0, (0, 2), (0, 2, 3), (0, 2, 3, 5)))),
        (B[1:], open_at % (180, h + ((0, 1, 2), (0, 1, 2, 3)))),
        (B[:3] + B[4:], open_at % (180, h + ((0, 1, 3), (0, 1, 3, 4)))),
        (B + [B[3]], open_at % (180, h + ((0, 1, 3), (0, 1, 3, 4)))),
        (C[:-1], open_at % (180, ("h", 1, (1, 2), (1, 2, 3), (1, 2, 3, 4)))),
        (C[::2], open_at % (576, ("h", 2, (2, 3), (2, 3, 4), (2, 3, 4, 5)))),
        (
            [one, one, other, other],
            "central surface is disconnected, e.g. at %r" % (("q", 5, (5, 6), (5, 6, 7)),),
        ),
    ]


@pytest.mark.parametrize("pentachora, message", broken_assembly_cases())
def test_broken_assemblies_keep_their_messages(pentachora, message):
    """The exact text each failed check gave when it visited every cell:
    the number of bad edges and the flag key of the least, or the least
    vertex apart from vertex 0."""
    with pytest.raises(TriangError) as err:
        _sigma_counts(GTriangulation(12, pentachora))
    assert str(err.value) == message


def test_oracle_unions_each_pentachoron_with_its_shared_units_only(monkeypatch):
    """Work guard: the union-find runs over units, 15 unions per
    pentachoron, not over the placed copies of the template's forest."""
    K = frozen_tri("cyclic_7_5")
    expected = _sigma_counts(K)  # the template is built once per process, outside the count
    calls = []
    union = DisjointSets.union

    def counted(self, a, b):
        calls.append((a, b))
        return union(self, a, b)

    monkeypatch.setattr(DisjointSets, "union", counted)
    assert _sigma_counts(K) == expected
    assert len(calls) <= 15 * len(K.pentachora)
