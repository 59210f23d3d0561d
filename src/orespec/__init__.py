"""Spectra, centres and Ore localizations of finite rings and monomial
algebras, with an exhaustive claim-verification harness."""

from .finring import (
    DEFAULT_ORDER_CAP,
    ElementSet,
    RingError,
    RingHom,
    RingTable,
    audit_ring,
    centre_set,
    is_normal_element,
    make_gf,
    make_matrix_ring,
    make_product,
    make_quotient,
    make_upper_triangular,
    make_zmod,
    same_tables,
    units,
)
from .ideals import (
    Ideal,
    IdealLattice,
    PrimeReport,
    all_ideals,
    classify_ideal,
    ideal_generated_by,
    ideal_intersection,
    ideal_product,
    is_irredundant,
    is_nilpotent_ideal,
    is_prime_rich,
    is_semiprime_ring,
    left_ann,
    min_primes,
    min_primes_over,
    prime_radical,
    right_ann,
)
from .localization import (
    Localization,
    MultSet,
    OreClass,
    check_A11_equivalence,
    classify_set,
    close_multiplicative,
    enumerate_mult_sets,
    largest_regular_set,
    largest_set_assoc,
    localize,
    localize_left_ideal,
    localize_normal,
    min_RS,
    min_RS_id,
    respects_prime_structure,
    t_l,
)
from .centre import (
    central_localize,
    central_regulars_miss_min_primes,
    central_regulars_stay_regular,
    centre_ring,
    check_pierce,
    rho,
)
from .monomial import (
    AnAlgebra,
    CommMonomialRing,
    NCMonomial,
    an_build,
    an_localize_normal,
    an_min_primes,
    an_multiply,
    an_verify,
    localize_monomial,
    make_monomial_ring,
    min_primes_monomial,
    saturate_monomial,
)
from .dsl import ParseError, RingExpr, evaluate, parse_ring_expr, render
from .harness import CorpusConfig, Instance, build_corpus, explain, run_suite

__version__ = "0.1.0"
