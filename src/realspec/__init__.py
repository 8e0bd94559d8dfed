"""Exact real Zariski spectrum machinery for Q[x] and its quotients."""

from .errors import (
    DomainError,
    InputError,
    InternalError,
    NotACoverError,
    NotASectionError,
    OutOfDomainError,
    ParseError,
    RingMismatchError,
)
from .polynomials import (
    NEG_INF,
    Factorization,
    Poly,
    bezout_many,
    count_real_roots,
    ext_gcd,
    factor,
    gcd,
    has_real_root,
    is_irreducible,
    real_part,
)
from .rings import (
    Certificate,
    CertificateOutcome,
    CertificateStatus,
    Ideal,
    Ring,
    RingElem,
    SigmaDenominator,
    SumOfSquares,
    annihilator,
    combination_certificate,
    find_certificate,
    real_radical,
    real_radical_member,
    verify_certificate,
)
from .spectrum import (
    ClosedSet,
    RealPrime,
    SubcoverOutcome,
    closed_intersect,
    closed_subset,
    closed_union,
    cover_check,
    enumerate_primes,
    finite_subcover,
    v_of,
)
from .sheaves import (
    GlueOutcome,
    GlueStatus,
    LocalFraction,
    Section,
    SigmaFraction,
    StalkElement,
    ValidationReport,
    equalize,
    glue,
    psi,
    section_eq,
    section_validate,
    sigma_eq,
    stalk_at,
    stalk_eq,
    verify_glue,
)
from .parsing import parse_poly, parse_ring

__version__ = "0.1.0"
