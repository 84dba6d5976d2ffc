"""Exact reduced simplicial homology and the Gorenstein* criterion.

Betti numbers come from exact ranks of the boundary maps, each built as one
sparse +-1 vector per face and reduced by the sparse kernel
`exactlin.pivot_columns` over Q or F_p.  The ranks are taken from the top
dimension down with the "clearing" step of Chen and Kerber (Persistent
homology computation with a twist, 2011): a face that leads a pivot row of
the boundary one dimension up has a boundary in the span of the boundaries
of the later faces, so it is left out of the next rank.
The Gorenstein verdict checks that the complex and all of its face links
have the reduced homology of spheres of the correct dimension and that no
vertex's star swallows the whole complex: Stanley's criterion for a
Gorenstein* complex.
"""

from .complexes import SimplicialComplex
from .errors import InputError
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
    """The boundary map from the faces `top` to the faces `bottom`, as sparse vectors.

    Faces are sorted vertex tuples.  Each top face gives the vector
    {index of (face minus its k-th vertex): (-1)^k}, a column of the boundary
    matrix.
    """
    index = {face: i for i, face in enumerate(bottom)}
    return ({index[face[:k] + face[k + 1:]]: -1 if k % 2 else 1 for k in range(len(face))}
            for face in top)


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
    d = cx.dim()
    faces = [[] for _ in range(d + 2)]  # faces[n]: the faces with n vertices
    for face in cx.faces:
        faces[len(face)].append(tuple(sorted(face)))
    for group in faces:
        group.sort()
    # boundary[n]: rank of the boundary of the faces with n vertices
    boundary = [0] * (d + 3)
    cleared = {}  # the pivot columns of the step before: indices into faces[n]
    for n in range(d + 1, 0, -1):
        kept = [face for i, face in enumerate(faces[n]) if i not in cleared]
        cleared = pivot_columns(_boundary_vectors(kept, faces[n - 1]), coeff_field)
        boundary[n] = len(cleared)
    betti = tuple(len(faces[n]) - boundary[n] - boundary[n + 1] for n in range(d + 2))
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
    if face not in cx.faces:
        raise InputError(f"{sorted(face)} is not a face")
    j = len(face) - 1
    link_h = reduced_homology(cx.link(face), coeff_field)
    return BettiTable(coeff_field.name, link_h.offset + j + 1, link_h.ranks)


def _sphere_failures(table: BettiTable, d: int, where) -> list:
    """Witnesses against 'reduced homology of a d-sphere'."""
    failures = []
    degrees = set(table.degrees()) | {d}
    for deg in sorted(degrees):
        expected = 1 if deg == d else 0
        found = table.rank(deg)
        if found != expected:
            failures.append((where, f"b~_{deg} = {expected}", f"b~_{deg} = {found}"))
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


def is_rational_homology_sphere(cx: SimplicialComplex, coeff_field=QQ) -> bool:
    """Global condition: the reduced homology of a dim(cx)-sphere."""
    if cx.is_void:
        raise InputError("the void complex has no homology")
    return not _sphere_failures(reduced_homology(cx, coeff_field), cx.dim(), frozenset())


def is_rational_homology_manifold(cx: SimplicialComplex, coeff_field=QQ) -> bool:
    """Local condition at every nonempty face: link homology of the right sphere."""
    return not _manifold_failures(cx, coeff_field)


def _manifold_failures(cx: SimplicialComplex, coeff_field) -> list:
    if cx.is_void:
        raise InputError("the void complex has no homology")
    d = cx.dim()
    failures = []
    for face in sorted((f for f in cx.faces if f), key=lambda f: (len(f), sorted(f))):
        j = len(face) - 1
        link_h = reduced_homology(cx.link(face), coeff_field)
        failures.extend(_sphere_failures(link_h, d - j - 1, face))
    return failures


def gorenstein_verdict(cx: SimplicialComplex, coeff_field=QQ) -> GorensteinReport:
    """Gorenstein* test for the Stanley-Reisner ring of the complex.

    True iff the complex is a rational homology sphere, every face link is a
    rational homology sphere of complementary dimension, and the core equals
    the whole complex.  That is Stanley's criterion for a Gorenstein*
    complex, which is stricter than a Gorenstein Stanley-Reisner ring: the
    cone {12, 13} over two points, or the full simplex, has a Gorenstein
    ring (its core is Gorenstein*) but gets verdict false here.  Every
    failure is recorded with a witness face.
    """
    if cx.is_void:
        raise InputError("the void complex has no Gorenstein verdict")
    d = cx.dim()
    failures = _sphere_failures(reduced_homology(cx, coeff_field), d, frozenset())
    failures.extend(_manifold_failures(cx, coeff_field))
    core_ok = cx.core() == cx
    return GorensteinReport(
        verdict=(not failures) and core_ok,
        dimension=d,
        failures=failures,
        core_equals_whole=core_ok,
    )
