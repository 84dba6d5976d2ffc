"""Exception hierarchy shared by all modules, and their one work budget.

Exit-code mapping used by the CLI: InputError -> 2, UnsupportedStructureError -> 3,
and any other exception -> 4, an internal error: a fault of logcy itself.  A
self-check that fails (a certificate that does not replay or re-verify, the
rank-nullity cross-check, an unbounded phase-1 LP) raises AssertionError
explicitly, never by an assert statement, which -O strips.
Mathematical "false" verdicts are ordinary return values, never exceptions.
"""

# The most table cells, monomials walked or faces built that one step may take
# before it raises InputError: a count up to --bound (graded_dimension,
# hilbert_function_up_to), the conic fixture's Stanley-Reisner check, a complex
# read from JSON and a Stanley-Reisner complex.  It also bounds the sizes that
# allocations follow: a tree's k + kPrime (tree_from_json), the conic
# fixture's n (ConicBundleFixture) and the dense cells of a tree's incidence
# map and balancing LP (build_rho, balancing_feasible).  The largest --bound
# count the tests and benchmark inputs make is under 1% of it; the largest
# complex the benchmark reads, 64 facets of 6 vertices, is under 2%, and its
# largest tree has 480 and 2 205 such cells.
COUNT_LIMIT = 250_000

# The most faces the Gorenstein test takes (homology.gorenstein_verdict), and
# so the most the Stanley-Reisner complex built for it may have.  The test
# takes the link of every face, each as a link of a smaller link, and reduces
# each shape of link once, the whole complex included.  At 4 096 faces on a
# 2-CPU host it took 0.12-0.19 s for the 11-simplex and for the boundary of the
# 11-simplex (4 095 faces), whose links repeat a few shapes, and 1.1-1.7 s for
# a random 4-dimensional complex on 16 vertices, 0.6-1.0 s of it in reducing
# the whole complex.  The benchmark's largest complex has 255.
FACE_LIMIT = 4096


class LogcyError(Exception):
    """Base class for all library errors."""


class InputError(LogcyError):
    """Malformed or inconsistent input data (dimension mismatches, bad JSON, ...)."""


class UnsupportedStructureError(LogcyError):
    """Structurally valid input that falls outside the supported fragment.

    The canonical case is a divisor configuration with a disconnected stratum
    handed to an operation that requires a simplicial dual complex.
    """
