"""Rooted contact trees: validation, the edge/vertex incidence homomorphism,
expected-dimension formulas, and balancing feasibility.

A tree carries depth sets on vertices and edges (subsets of the divisor
index range, optionally extended by a marked block), integer contact vectors
on oriented edges, and the degree of the output orbit.  The incidence
homomorphism goes from Z^{edges} + sum_v Z^{I_v} to sum_e Z^{I_e}; its rank
and kernel control the dimension formulas, and strict balancing feasibility
is decided by an exact LP.
"""

from fractions import Fraction
from math import comb

from . import linprog
from .errors import COUNT_LIMIT, InputError
from .exactlin import nullspace_dimension, rank_int_bareiss
from .schema import require_distinct, validate


class TreeEdge:
    __slots__ = ("a", "b", "depth", "contact")

    def __init__(self, a: int, b: int, depth: frozenset, contact: tuple):
        self.a = a
        self.b = b
        self.depth = depth
        self.contact = contact  # contact vector of the oriented edge a -> b


class Violation:
    __slots__ = ("where", "clause", "detail")

    def __init__(self, where: str, clause: str, detail: str):
        self.where = where
        self.clause = clause
        self.detail = detail

    def to_json(self) -> dict:
        return {"where": self.where, "clause": self.clause, "detail": self.detail}


class LogPssTree:
    """Rooted tree with depth and contact decorations.

    Index conventions: 1..k are divisor directions, k+1..k+k_prime the marked
    block.  Contact vectors have length k + k_prime.  legs is a list of
    (vertex, label) pairs where label None marks the distinguished output leg
    and integers 1..k_prime label marked legs.
    """

    def __init__(self, k, vertices, edges, root, legs, deg_x0, k_prime=0):
        self.k = int(k)
        self.k_prime = int(k_prime)
        self.vertices = {int(v): frozenset(depth) for v, depth in vertices.items()}
        self.edges = list(edges)
        self.root = int(root)
        self.legs = [(int(v), label if label is None else int(label)) for v, label in legs]
        self.deg_x0 = int(deg_x0)

    @property
    def index_range(self) -> int:
        return self.k + self.k_prime

    def validate(self) -> list:
        """All invariant violations, each naming the offending vertex or edge.
        The edges are read once, into the adjacency map the later clauses read."""
        bad = []
        if self.root not in self.vertices:
            bad.append(Violation("tree", "root", f"root {self.root} is not a vertex"))
            return bad
        n = self.index_range
        for v, depth in sorted(self.vertices.items()):
            if not all(1 <= i <= n for i in depth):
                bad.append(Violation(f"vertex {v}", "depth-range",
                                     f"depth {sorted(depth)} leaves 1..{n}"))
        if self.vertices[self.root]:
            bad.append(Violation(f"vertex {self.root}", "root-depth",
                                 "the root depth set must be empty"))

        adjacent = {v: set() for v in self.vertices}
        structural = False
        for e in self.edges:
            name = f"edge {e.a}-{e.b}"
            if e.a not in adjacent or e.b not in adjacent or e.a == e.b:
                bad.append(Violation(name, "incidence", "edge endpoints must be distinct vertices"))
                structural = True
                continue
            if e.b in adjacent[e.a]:
                bad.append(Violation(name, "multi-edge", "duplicate edge"))
                structural = True
            adjacent[e.a].add(e.b)
            adjacent[e.b].add(e.a)
            if len(e.contact) != n:
                bad.append(Violation(name, "contact-length",
                                     f"contact vector has length {len(e.contact)}, "
                                     f"expected {n}"))
                structural = True
                continue
            union = self.vertices[e.a] | self.vertices[e.b]
            if union != e.depth:
                bad.append(Violation(name, "depth-union",
                                     f"vertex depths union to {sorted(union)} "
                                     f"but the edge carries {sorted(e.depth)}"))
            support = {i + 1 for i, x in enumerate(e.contact) if x != 0}
            if not support <= e.depth:
                bad.append(Violation(name, "contact-support",
                                     f"contact support {sorted(support)} leaves "
                                     f"edge depth {sorted(e.depth)}"))
        if structural:
            return bad

        reached, frontier = {self.root}, [self.root]
        while frontier:
            for u in adjacent[frontier.pop()]:
                if u not in reached:
                    reached.add(u)
                    frontier.append(u)
        if len(self.edges) != len(adjacent) - 1 or len(reached) != len(adjacent):
            bad.append(Violation("tree", "tree-shape",
                                 "the underlying graph must be a connected tree"))
            return bad

        # a tree falls apart into one piece per edge at the vertex removed
        if len(adjacent[self.root]) > 1:
            bad.append(Violation("tree", "root-removal",
                                 "removing the root must leave a connected tree"))

        unlabeled = [v for v, label in self.legs if label is None]
        if len(unlabeled) != 1:
            bad.append(Violation("tree", "output-leg",
                                 f"exactly one distinguished leg required, found {len(unlabeled)}"))
        leg_count = {}
        for v, label in self.legs:
            leg_count[v] = leg_count.get(v, 0) + 1
            if v not in adjacent:
                bad.append(Violation(f"leg at {v}", "leg-vertex", "leg attaches to a missing vertex"))
            if label is not None and not 1 <= label <= self.k_prime:
                bad.append(Violation(f"leg at {v}", "leg-label",
                                     f"label {label} leaves 1..{self.k_prime}"))
        if any(label is not None for _, label in self.legs):
            for v in sorted(adjacent):
                valence = len(adjacent[v]) + leg_count.get(v, 0)
                if v != self.root and valence < 3:
                    bad.append(Violation(f"vertex {v}", "stability",
                                         f"edge+leg valence {valence} < 3 in the marked case"))
        return bad

    def require_valid(self):
        bad = self.validate()
        if bad:
            raise InputError("invalid tree: " + "; ".join(
                f"[{v.where}] {v.clause}: {v.detail}" for v in bad))


def tree_from_json(data) -> LogPssTree:
    """The tree of a tree JSON.  Its contact vectors, and the certificate of
    balancing_feasible, have k + kPrime entries, so more than
    logcy.errors.COUNT_LIMIT is refused."""
    validate(data, TREE_SCHEMA)
    if data["k"] + data.get("kPrime", 0) > COUNT_LIMIT:
        raise InputError(f"k + kPrime is too large: contact vectors and certificates have "
                         f"k + kPrime entries, and more than {COUNT_LIMIT} are refused")
    require_distinct([entry["id"] for entry in data["vertices"]],
                     "tree JSON", "vertices", "id")
    vertices = {}
    for idx, entry in enumerate(data["vertices"]):
        depth = entry.get("depth", [])
        vertices[entry["id"]] = index = frozenset(depth)
        if len(index) != len(depth):  # only then is the error path written
            require_distinct(depth, "tree JSON", f"vertices[{idx}].depth", "index")
    edges = []
    for idx, entry in enumerate(data["edges"]):
        depth = entry.get("depthE", [])
        index = frozenset(depth)
        if len(index) != len(depth):
            require_distinct(depth, "tree JSON", f"edges[{idx}].depthE", "index")
        a, b = entry["a"], entry["b"]
        forward = entry["contact"].get(f"{a}->{b}")
        backward = entry["contact"].get(f"{b}->{a}")
        if forward is None and backward is None:
            raise InputError(f"edge {a}-{b} has no contact vector")
        if forward is not None and backward is not None and forward != [-x for x in backward]:
            raise InputError(f"edge {a}-{b} contact vectors are not antisymmetric")
        vec = tuple(forward) if forward is not None else tuple(-x for x in backward)
        edges.append(TreeEdge(a, b, index, vec))
    legs = [(entry["vertex"], entry.get("label")) for entry in data.get("legs", [])]
    return LogPssTree(data["k"], vertices, edges, data["root"], legs, data["deg_x0"],
                      data.get("kPrime", 0))


TREE_SCHEMA = {
    "title": "tree JSON",
    "type": "object",
    "required": ["k", "root", "deg_x0", "vertices", "edges"],
    "properties": {
        "k": {"type": "integer", "minimum": 0},
        "kPrime": {"type": "integer", "minimum": 0},
        "root": {"type": "integer"},
        "deg_x0": {"type": "integer"},
        "vertices": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id"],
                "properties": {
                    "id": {"type": "integer"},
                    "depth": {"type": "array", "items": {"type": "integer"}},
                },
            },
        },
        "edges": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["a", "b", "contact"],
                "properties": {
                    "a": {"type": "integer"},
                    "b": {"type": "integer"},
                    "depthE": {"type": "array", "items": {"type": "integer"}},
                    "contact": {"type": "object", "additionalProperties": {
                        "type": "array", "items": {"type": "integer"}}},
                },
            },
        },
        "legs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["vertex"],
                "properties": {
                    "vertex": {"type": "integer"},
                    "label": {"type": ["integer", "null"]},
                },
            },
        },
    },
}


class RhoMap:
    """Integer matrix of the incidence homomorphism with its index labels.

    Rows are (edge position, depth index); columns are the edge generators
    followed by (vertex, depth index) generators.  The stored edge direction
    a -> b is the chosen orientation.
    """

    __slots__ = ("matrix", "row_labels", "col_labels")

    def __init__(self, matrix: tuple, row_labels: tuple, col_labels: tuple):
        self.matrix = matrix
        self.row_labels = row_labels
        self.col_labels = col_labels

    @property
    def ncols(self) -> int:
        return len(self.col_labels)

    def rank(self) -> int:
        return rank_int_bareiss(self.matrix)

    def kernel_dim(self) -> int:
        return nullspace_dimension(self.matrix, self.ncols)

    def apply(self, vector):
        if len(vector) != self.ncols:
            raise InputError("vector length does not match the column count")
        return [sum(row[j] * vector[j] for j in range(self.ncols)) for row in self.matrix]

    def to_json(self) -> dict:
        return {
            "rows": [{"edge": list(edge), "index": i} for (edge, i) in self.row_labels],
            "cols": [
                {"edge": list(label[1])} if label[0] == "edge" else
                {"vertex": label[1], "index": label[2]}
                for label in self.col_labels
            ],
            "matrix": [list(row) for row in self.matrix],
        }


def _require_cells(matrix: str, nrows: int, ncols: int):
    """Refuse, before allocating, a dense matrix of more than COUNT_LIMIT cells."""
    if nrows * ncols > COUNT_LIMIT:
        raise InputError(f"the tree is too large: its {matrix} has {nrows} x {ncols} cells, "
                         f"and more than {COUNT_LIMIT} are refused")


def build_rho(tree: LogPssTree) -> RhoMap:
    """Assemble the incidence matrix for the tree's stored edge orientations.
    Row (e, i) is edge e's alone: its contact at e's column, +1 at column
    (e.a, i) when i is in e.a's depth and -1 at (e.b, i) when i is in e.b's.
    A matrix of more than logcy.errors.COUNT_LIMIT cells is refused first."""
    tree.require_valid()
    vertex_cols = [("vertex", v, i)
                   for v in sorted(tree.vertices) for i in sorted(tree.vertices[v])]
    ncols = len(tree.edges) + len(vertex_cols)
    _require_cells("incidence map", sum(len(e.depth) for e in tree.edges), ncols)
    vertex_col = {label[1:]: col for col, label in enumerate(vertex_cols, len(tree.edges))}
    edge_cols, row_labels, matrix = [], [], []
    for col, e in enumerate(tree.edges):
        edge_cols.append(("edge", (e.a, e.b)))
        for i in sorted(e.depth):
            row = [0] * ncols
            row[col] = e.contact[i - 1]
            if i in tree.vertices[e.a]:
                row[vertex_col[e.a, i]] = 1
            if i in tree.vertices[e.b]:
                row[vertex_col[e.b, i]] = -1
            row_labels.append(((e.a, e.b), i))
            matrix.append(tuple(row))
    return RhoMap(tuple(matrix), tuple(row_labels), tuple(edge_cols + vertex_cols))


def kernel_dim(tree: LogPssTree) -> int:
    return build_rho(tree).kernel_dim()


def _depth_sums(tree: LogPssTree):
    edge_sum = sum(len(e.depth) - 1 for e in tree.edges)
    vertex_sum = sum(len(d) for d in tree.vertices.values())
    return edge_sum, vertex_sum


def obstruction_dim(tree: LogPssTree, rho: RhoMap | None = None,
                    kernel: int | None = None) -> int:
    """Real dimension of the gluing-obstruction torus, computed two ways.

    The direct formula uses the depth counts plus the kernel dimension; the
    rank route uses the target dimension minus the matrix rank.  They must
    coincide by rank-nullity, and disagreement raises AssertionError, a
    fault of logcy, rather than silently picking one.  A caller that already holds
    build_rho(tree), or also its kernel_dim(), passes them in.
    """
    if rho is None:
        rho = build_rho(tree)
    if kernel is None:
        kernel = rho.kernel_dim()
    edge_sum, vertex_sum = _depth_sums(tree)
    via_kernel = 2 * (edge_sum - vertex_sum + kernel)
    via_rank = 2 * (sum(len(e.depth) for e in tree.edges) - rho.rank())
    if via_kernel != via_rank:
        raise AssertionError("rank-nullity cross-check failed for the obstruction dimension")
    return via_kernel


def vdim_prelog(tree: LogPssTree) -> int:
    """Expected dimension before the balancing and obstruction constraints."""
    tree.require_valid()
    edge_sum, vertex_sum = _depth_sums(tree)
    return tree.deg_x0 + 2 * (edge_sum - vertex_sum)


def vdim_log(tree: LogPssTree) -> int:
    """Expected dimension of the balanced stratum: output degree minus twice
    the kernel dimension of the incidence map."""
    return tree.deg_x0 - 2 * kernel_dim(tree)


class BalancingCertificate:
    """Strictly positive vertex vectors and edge scalings witnessing balance."""

    __slots__ = ("vertex_values", "edge_scalars")

    def __init__(self, vertex_values: dict, edge_scalars: dict):
        self.vertex_values = vertex_values  # vertex -> tuple of Fractions (length k + k')
        self.edge_scalars = edge_scalars    # (a, b) -> Fraction, keyed by stored orientation

    def verify(self, tree: LogPssTree) -> bool:
        n = tree.index_range
        for v, depth in tree.vertices.items():
            vec = self.vertex_values.get(v)
            if vec is None or len(vec) != n:
                return False
            for i in range(1, n + 1):
                if i in depth:
                    if vec[i - 1] <= 0:
                        return False
                elif vec[i - 1] != 0:
                    return False
        for e in tree.edges:
            lam = self.edge_scalars.get((e.a, e.b))
            if lam is None or lam <= 0:
                return False
            va = self.vertex_values[e.a]
            vb = self.vertex_values[e.b]
            for i in range(n):
                if va[i] - vb[i] != lam * e.contact[i]:
                    return False
        return True

    def kernel_vector(self, tree: LogPssTree, rho: RhoMap):
        """The induced element of the incidence map's domain (maps to zero)."""
        coords = []
        for label in rho.col_labels:
            if label[0] == "edge":
                coords.append(-self.edge_scalars[label[1]])
            else:
                _, v, i = label
                coords.append(self.vertex_values[v][i - 1])
        return coords

    def to_json(self) -> dict:
        from .rationals import format_rational
        return {
            "vertexValues": {str(v): [format_rational(x) for x in vec]
                             for v, vec in sorted(self.vertex_values.items())},
            "edgeScalars": {f"{a}->{b}": format_rational(lam)
                            for (a, b), lam in sorted(self.edge_scalars.items())},
        }


def balancing_feasible(tree: LogPssTree):
    """Decide strict feasibility of the balancing system by exact LP.

    Maximizes the margin delta subject to the difference equations, all
    lower bounds lambda_e >= delta and v_{nu,i} >= delta, and the
    normalization that all variables sum to 1 (valid because the system is
    homogeneous).  Returns a re-verified certificate, or None.  An LP of
    more than logcy.errors.COUNT_LIMIT cells is refused before it is built.
    """
    rho = build_rho(tree)
    n = tree.index_range
    if not rho.ncols:
        return BalancingCertificate(
            {v: (Fraction(0),) * n for v in tree.vertices}, {})
    # columns: rho's columns, then delta, then one slack per lower bound;
    # rho's rows with the edge columns negated read v_a - v_b - lambda_e * contact_e = 0
    delta = rho.ncols
    _require_cells("balancing LP", len(rho.matrix) + delta + 1, 2 * delta + 1)
    nedges = len(tree.edges)
    pad = [0] * (delta + 1)
    rows = [[-x for x in row[:nedges]] + list(row[nedges:]) + pad for row in rho.matrix]
    for idx in range(delta):
        row = [0] * (2 * delta + 1)
        row[idx] = 1
        row[delta] = -1
        row[delta + 1 + idx] = -1
        rows.append(row)
    rows.append([1] * delta + pad)
    rhs = [0] * (len(rows) - 1) + [1]
    objective = [0] * delta + [1] + [0] * delta
    status, solution, value = linprog.solve_max(objective, rows, rhs)
    if status != linprog.OPTIMAL or value <= 0:
        return None

    vertex_values = {v: [Fraction(0)] * n for v in tree.vertices}
    edge_scalars = {}
    for label, x in zip(rho.col_labels, solution):
        if label[0] == "edge":
            edge_scalars[label[1]] = x
        else:
            _, v, i = label
            vertex_values[v][i - 1] = x
    vertex_values = {v: tuple(vec) for v, vec in vertex_values.items()}
    cert = BalancingCertificate(vertex_values, edge_scalars)
    if not cert.verify(tree):
        raise AssertionError("balancing certificate failed re-verification")
    return cert


def partition_count(r: int, r0: int, r1: int) -> int:
    """Number of ways to split r marked points into ordered groups of r0 and r1."""
    if r < 0 or r0 < 0 or r1 < 0 or r0 + r1 != r:
        raise InputError("partition counts need r0 + r1 = r with all nonnegative")
    return comb(r, r0)
