"""cyclogcd: exact-arithmetic experiments on gcd sequences of cyclotomic
values, over the integers and over polynomial rings with finite-field
coefficients."""

__version__ = "0.1.0"

from .arith import (
    FactoredInt,
    euler_phi,
    factorize,
    is_prime,
    li,
    moebius,
    sieve_primes,
)
from .champion import (
    ChampionParams,
    ChampionReport,
    build_kernel,
    enumerate_pairs,
    pigeonhole_champion,
    run_champion,
    verify_champion,
)
from .cyclotomic import CyclotomicPoly, build_cyclotomic, eval_int, eval_mod_prime, eval_poly_fq
from .density import (
    DensityCheck,
    DensityPrediction,
    dependence_exponent,
    empirical_density,
    predicted_density,
)
from .errors import HypothesisError, VerificationError
from .ffield import (
    FFConstruction,
    FFScanResult,
    FFVerifyResult,
    FieldContext,
    FqPolynomial,
    choose_params,
    ff_construction,
    ff_direct_verify,
    ff_equivalence_check,
    ff_scan,
    fq_context,
    irreducible_count,
    irreducible_test,
    is_lth_power_poly,
    poly_gcd,
    poly_pow,
    poly_powmod,
)
from .oracles import (
    GcdSeqRow,
    delta_count_range,
    delta_squarefree_range,
    gcd_seq_exact,
)
from .residues import LemmaScanResult, lemma_scan
