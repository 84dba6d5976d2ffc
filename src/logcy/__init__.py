"""Exact combinatorial commutative algebra for normal-crossings divisor
geometry: stratum posets, theta rings, simplicial homology and Gorenstein
criteria, weighted Groebner bases, Rees degenerations, contact-tree
calculus, and action/energy filtration arithmetic."""

from .complexes import SimplicialComplex, cross_polytope_boundary, full_simplex, sphere_boundary
from .errors import DegenerateChordError, InputError, LogcyError, UnsupportedStructureError
from .fields import QQ, PrimeField
from .groebner import (Ideal, groebner_basis, hilbert_function_up_to, ideal_membership,
                       ideals_equal, is_groebner, jacobian_smooth, normal_form)
from .homology import (BettiTable, GorensteinReport, gorenstein_verdict,
                       is_rational_homology_manifold, is_rational_homology_sphere,
                       local_homology_at_face, reduced_homology)
from .poly import Polynomial, WeightedOrder, parse_polynomial, unit_order
from .rees import (ReesPresentation, WeightedPresentation, associated_graded, fiber_at,
                   presentations_ideal_equal, rees_algebra)
from .sr_algebra import (ThetaBasisElement, ThetaElement, graded_dimension, multiply,
                         multiply_basis, parse_theta_expression, sr_presentation,
                         theta_basis_up_to, unit_element)
from .stratum import DivisorConfiguration, configuration_from_json
from .trees import (BalancingCertificate, LogPssTree, RhoMap, TreeEdge, balancing_feasible,
                    build_rho, kernel_dim, obstruction_dim, partition_count, tree_from_json,
                    vdim_log, vdim_prelog)
from .energy import (ChordLabel, EnergyParameters, OrbitLabel, chord_action_approx,
                     chord_weight, filtration_monotone_check, orbit_action_approx,
                     pss_energy, pss_energy_approx, short_chord_winding, weighted_winding)

__version__ = "0.1.0"
