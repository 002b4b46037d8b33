"""Exact-arithmetic well-roundedness certification for ideal lattices of
cyclic cubic and cyclic quartic number fields."""

from .cubic_field import CubicField
from .quartic_field import QuarticField
from .ideal_lattice import (
    IdealLattice,
    PrimeDecomposition,
    decompose_prime,
    decompose_prime_cubic,
    decompose_prime_quartic,
    enumerate_primitive_ideals,
    from_generators,
    from_z_generators,
    principal_integer,
    ramified_product_ideal,
    split_pair_above,
    stable_subspace_primes,
    trace_sublattice,
    unit_ideal,
)
from .lattice_reduce import (
    GramForm,
    ShortVectorSet,
    WrReport,
    gram_of_ideal,
    naive_shortest,
    shortest_vectors,
    wr_report,
)
from .numtheory import (
    EisensteinRep,
    Factorization,
    conductor_params,
    eisenstein_rep,
    eisenstein_rep_adapted,
    enumerate_conductors,
    factorize,
    is_prime,
    is_quadratic_residue,
    is_valid_conductor,
    sqrt_mod,
)
from .wr_certify import (
    WrCase,
    CrosscheckResult,
    crosscheck_case,
    crosscheck_field,
    cubic_divisor_ideal,
    cubic_divisor_wr_predicate,
    cubic_mixed_ideal,
    cubic_mixed_wr_predicate,
    cubic_orthogonal_ideal,
    quartic_a_prime_wr_predicate,
    quartic_d_prime_wr_predicate,
    quartic_product_wr_predicate,
    unique_prime_above,
    wr_prime_above_2_predicate,
)

__version__ = "0.1.0"
