"""Concatenated binary linear codes: construction, certification, experiments.

Build codes C_out . C_in over GF(2^k0), verify the exact bias-moment
identities against brute force, certify tau-niceness / soft-decoding /
smooth-min-entropy conditions, and run seeded ensemble sweeps against the
Gilbert-Varshamov and Zyablov reference curves.
"""

from .bounds import gv_check, gv_rate, h2, h2_inv, zyablov_rate
from .certify import (
    C_DEFAULT,
    C_TILDE_DEFAULT,
    EntropyReport,
    ExactSoft,
    NicenessReport,
    Pmf,
    SoftReport,
    bernoulli_p,
    check_nice,
    d_pmf,
    entropy_hypothesis,
    smooth_min_entropy,
    soft_condition,
    soft_enumerator,
)
from .codes import (
    BinaryCode,
    ConcatCode,
    OuterCode,
    WeightDistribution,
    bias,
    min_distance,
    weight_distribution,
)
from .field import FieldCtx, make_field
from .fileio import load_binary_code, load_outer_code
from .linalg import (
    BitMatrix,
    FieldMatrix,
    nullspace_basis,
    rank,
    sample_binary_code,
    sample_field_code,
)
from .moments import (
    BadBoundReport,
    WCountReport,
    bad_bound,
    count_W,
    moment_dual,
    poisson_product_check,
)
from .rng import SplitMix64, derive_seed
from .sweep import SweepConfig, SweepRow, config_from_dict, run_sweep

__version__ = "0.1.0"
