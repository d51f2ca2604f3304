import types

import concatgv

# The package's public surface.  Adding or removing an export is a deliberate
# edit here; modules are filtered out, since importing a submodule such as
# concatgv.cli binds it on the package.
PUBLIC = [
    "BadBoundReport", "BinaryCode", "BitMatrix", "C_DEFAULT", "C_TILDE_DEFAULT",
    "ConcatCode", "EntropyReport", "FieldCtx", "FieldMatrix", "NicenessReport",
    "OuterCode", "Pmf", "RateDistancePoint", "SoftReport", "SplitMix64",
    "SweepConfig", "SweepRow", "WCountReport", "WeightDistribution", "bad_bound",
    "bernoulli_p", "bias", "check_nice", "config_from_dict", "count_W", "d_pmf",
    "derive_seed", "empirical_dist", "entropy_hypothesis", "gv_check", "gv_rate",
    "h2", "h2_inv", "load_binary_code", "load_outer_code", "make_field",
    "min_distance", "moment_dual", "nullspace_basis", "poisson_product_check",
    "rank", "run_sweep", "sample_binary_code", "sample_field_code",
    "smooth_min_entropy", "soft_condition", "weight_distribution", "zyablov_rate",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(concatgv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC
