"""Exact reduced simplicial homology and the Gorenstein* criterion.

Betti numbers come from exact ranks of the boundary maps, each built as one
sparse +-1 vector per face bitmask and reduced by the sparse kernel
`exactlin.pivot_columns` over Q or F_p.  The ranks are taken from the top
dimension down with the "clearing" step of Chen and Kerber (Persistent
homology computation with a twist, 2011): a face that leads a pivot row of
the boundary one dimension up has a boundary in the span of the boundaries
of the later faces (in any fixed order), so it is left out of the next rank.
The Gorenstein verdict checks that the link of every face, the empty face
included (its link is the whole complex), has the reduced homology of a
sphere of the complementary dimension and that the AND of the facet masks is
empty, so no vertex's star swallows the whole complex: Stanley's criterion
for a Gorenstein* complex.

The links are visited depth first as links of links, from lk {} = the complex
through lk(F + v) = lk(lk F, v) for the vertices v of lk F above the largest
vertex of F, so each face is reached once.  A link is built on its own
vertices (complexes.py), so two links that differ by an order-preserving
renaming of their vertices have equal masks: they are one shape.  The link of
the vertex at bit i of a shape depends only on the shape and i, so one verdict
builds it once per (shape, i) and renames its vertices for each face it
serves.  Reduced homology depends on the complex only up to isomorphism, so
each shape is eliminated once, and the sphere test, which reads only the Betti
numbers and the codimension, runs once per (Betti numbers, codimension);
witness faces are listed only for the tests that fail.  The memos live only
for that verdict.
"""

from bisect import bisect_right

from .complexes import SimplicialComplex
from .errors import FACE_LIMIT, InputError
from .exactlin import pivot_columns
from .fields import QQ


class BettiTable:
    """Reduced Betti numbers indexed from the given offset (usually -1)."""

    __slots__ = ("field_name", "offset", "ranks")

    def __init__(self, field_name: str, offset: int, ranks: tuple):
        self.field_name = field_name
        self.offset = offset
        self.ranks = ranks

    def __eq__(self, other):
        return (isinstance(other, BettiTable) and other.field_name == self.field_name
                and other.offset == self.offset and other.ranks == self.ranks)

    def rank(self, degree: int) -> int:
        idx = degree - self.offset
        if 0 <= idx < len(self.ranks):
            return self.ranks[idx]
        return 0

    def degrees(self):
        return range(self.offset, self.offset + len(self.ranks))

    def to_json(self) -> dict:
        return {str(d): self.rank(d) for d in self.degrees()}


def _boundary_vectors(top, bottom):
    """The boundary map from the face masks `top` to those in `bottom`, as sparse
    vectors: a top face gives {index of (face minus its k-th lowest bit): (-1)^k}."""
    index = {face: i for i, face in enumerate(bottom)}
    for face in top:
        vector, sign, rest = {}, 1, face
        while rest:
            low = rest & -rest
            vector[index[face ^ low]] = sign
            sign, rest = -sign, rest ^ low
        yield vector


def reduced_homology(cx: SimplicialComplex, coeff_field=QQ) -> BettiTable:
    """Reduced Betti numbers in degrees -1..dim(cx).

    The complex with only the empty face is the (-1)-sphere: a single unit
    in degree -1.  The void complex is rejected.

    The boundary ranks are found from the top dimension down.  A pivot row
    of the reduction of the boundary of the faces with n+1 vertices is a
    boundary, so its own boundary is 0; it reads sigma_i + sum_{k>i} c_k
    sigma_k over the faces with n vertices, with sigma_i its lead column.
    So the boundary of sigma_i lies in the span of the boundaries of the
    sigma_k with k > i, and leaving out every such sigma_i (the largest i
    first) keeps the rank of the boundary of the faces with n vertices.
    """
    if cx.is_void:
        raise InputError("homology of the void complex is undefined")
    groups = {}
    for face in sorted(cx.masks):
        groups.setdefault(face.bit_count(), []).append(face)
    faces = [groups[n] for n in range(len(groups))]  # faces[n]: the n-bit masks, increasing
    # boundary[n]: rank of the boundary of the faces with n vertices
    boundary = [0] * (len(faces) + 1)
    cleared = {}  # the pivot columns of the step before: indices into faces[n]
    for n in range(len(faces) - 1, 0, -1):
        kept = [face for i, face in enumerate(faces[n]) if i not in cleared]
        cleared = pivot_columns(_boundary_vectors(kept, faces[n - 1]), coeff_field)
        boundary[n] = len(cleared)
    betti = tuple(len(faces[n]) - boundary[n] - boundary[n + 1] for n in range(len(faces)))
    return BettiTable(coeff_field.name, -1, betti)


def local_homology_at_face(cx: SimplicialComplex, face, coeff_field=QQ) -> BettiTable:
    """Local homology at an interior point of a nonempty face.

    For a face of dimension j this is the reduced homology of its link
    shifted up by j+1.  A facet has the empty-set link, whose single unit in
    degree -1 lands in degree j: the boundary point of a j-ball convention.
    """
    face = frozenset(face)
    if not face:
        raise InputError("local homology needs a nonempty face")
    link_h = reduced_homology(cx.link(face), coeff_field)
    return BettiTable(coeff_field.name, link_h.offset + len(face), link_h.ranks)


def _sphere_failures(table: BettiTable, d: int) -> list:
    """(expected, found) pairs against 'reduced homology of a d-sphere'."""
    failures = []
    degrees = set(table.degrees()) | {d}
    for deg in sorted(degrees):
        expected = 1 if deg == d else 0
        found = table.rank(deg)
        if found != expected:
            failures.append((f"b~_{deg} = {expected}", f"b~_{deg} = {found}"))
    return failures


class GorensteinReport:
    __slots__ = ("verdict", "dimension", "failures", "core_equals_whole")

    def __init__(self, verdict: bool, dimension: int, failures: list, core_equals_whole: bool):
        self.verdict = verdict
        self.dimension = dimension
        self.failures = failures
        self.core_equals_whole = core_equals_whole

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "dimension": self.dimension,
            "coreEqualsWhole": self.core_equals_whole,
            "failures": [
                {"face": sorted(face), "expected": exp, "found": found}
                for face, exp, found in self.failures
            ],
        }


def _link_tables(cx: SimplicialComplex, coeff_field) -> dict:
    """{sorted labels of F: reduced homology of lk F} for every face F, from a
    depth-first sweep of links of links that starts at lk {} = cx.  A shape's
    link at bit i is built once, by `link` on the shape's complex over bit
    positions, and its vertices are then the kept positions; the links of one
    shape share one elimination.  The sweep keeps a stack, not a recursive
    closure: a closure refers to itself, and the cycle would hold the memos
    after the verdict until the next collection."""
    shapes, links, tables = {}, {}, {}
    todo = [(cx.masks, cx.vertices, ())]
    while todo:
        masks, labels, face = todo.pop()
        table = shapes.get(masks)
        if table is None:
            table = shapes[masks] = reduced_homology(SimplicialComplex(labels, masks),
                                                     coeff_field)
        tables[face] = table
        for i in range(bisect_right(labels, face[-1]) if face else 0, len(labels)):
            child = links.get((masks, i))
            if child is None:
                positions = SimplicialComplex(tuple(range(len(labels))), masks)
                child = links[masks, i] = positions.link((i,))
            todo.append((child.masks, tuple(labels[j] for j in child.vertices),
                         face + (labels[i],)))
    return tables


def gorenstein_verdict(cx: SimplicialComplex, coeff_field=QQ) -> GorensteinReport:
    """Gorenstein* test for the Stanley-Reisner ring of the complex.

    True iff the complex is a rational homology sphere, every face link is a
    rational homology sphere of complementary dimension, and the core equals
    the whole complex.  That is Stanley's criterion for a Gorenstein*
    complex, which is stricter than a Gorenstein Stanley-Reisner ring: the
    cone {12, 13} over two points, or the full simplex, has a Gorenstein
    ring (its core is Gorenstein*) but gets verdict false here.  Every
    failure is recorded with a witness face.  A complex of more than
    logcy.errors.FACE_LIMIT faces raises InputError before any homology is
    computed.
    """
    if cx.is_void:
        raise InputError("the void complex has no Gorenstein verdict")
    if len(cx.masks) > FACE_LIMIT:
        raise InputError(f"the complex is too large for the Gorenstein test: it has "
                         f"{len(cx.masks)} faces, and the test takes the link of each, "
                         f"so more than {FACE_LIMIT} faces are refused")
    d, tests, failing = cx.dim(), {}, []
    for face, table in _link_tables(cx, coeff_field).items():
        key = (table.ranks, len(face))
        pairs = tests.get(key)
        if pairs is None:
            pairs = tests[key] = _sphere_failures(table, d - len(face))
        if pairs:
            failing.append((face, pairs))
    failing.sort(key=lambda item: (len(item[0]), item[0]))  # {} first, then by size
    failures = [(frozenset(face), expected, found)
                for face, pairs in failing for expected, found in pairs]
    core_ok = cx.cone_mask() == 0
    return GorensteinReport(
        verdict=(not failures) and core_ok,
        dimension=d,
        failures=failures,
        core_equals_whole=core_ok,
    )
