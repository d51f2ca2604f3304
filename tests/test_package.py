import dataclasses
import inspect
import types

import concatgv
from concatgv import certify, codes, field, linalg, moments, sweep

# The package's public surface.  Adding or removing an export is a deliberate
# edit here; modules are filtered out, since importing a submodule such as
# concatgv.cli binds it on the package.
PUBLIC = [
    "BadBoundReport", "BinaryCode", "BitMatrix", "C_DEFAULT", "C_TILDE_DEFAULT",
    "ConcatCode", "EntropyReport", "ExactSoft", "FieldCtx", "FieldMatrix", "NicenessReport",
    "OuterCode", "Pmf", "SoftReport", "SplitMix64",
    "SweepConfig", "SweepRow", "WCountReport", "WeightDistribution", "bad_bound",
    "bernoulli_p", "bias", "check_nice", "config_from_dict", "count_W", "d_pmf",
    "derive_seed", "entropy_hypothesis", "gv_check", "gv_rate",
    "h2", "h2_inv", "load_binary_code", "load_outer_code", "make_field",
    "min_distance", "moment_dual", "nullspace_basis", "poisson_product_check",
    "rank", "run_sweep", "sample_binary_code", "sample_field_code",
    "smooth_min_entropy", "soft_condition", "soft_enumerator", "weight_distribution", "zyablov_rate",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(concatgv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC


def test_names_the_benchmark_reads():
    # bench/ is not collected with the tests.  It times sweeps, traces the
    # calls run_trial makes through the names concatgv.sweep binds, and checks
    # rows with an oracle of its own, so it reads all of these.
    for owner, name in [
        (sweep, "config_from_dict"), (sweep, "run_sweep"), (sweep, "emit_csv"),
        (sweep, "emit_json"), (sweep, "CSV_COLUMNS"), (field, "make_field"),
        (field.FieldCtx, "mul"), (linalg, "rank"), (certify, "smooth_min_entropy"),
    ]:
        assert hasattr(owner, name), name
    assert list(inspect.signature(sweep.run_trial).parameters)[1] == "trial"
    for module, name in [
        (certify, "check_nice"), (certify, "soft_condition"), (certify, "entropy_hypothesis"),
        (moments, "moment_dual"), (codes, "weight_distribution"),
        (linalg, "sample_binary_code"), (linalg, "sample_field_code"),
    ]:
        assert getattr(sweep, name) is getattr(module, name), name

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(certify.soft_condition)[0] == "outer"
    assert params(moments.moment_dual)[:2] == ["cc", "r"]
    assert params(codes.min_distance) == ["code", "budget"]
    assert {"is_exact", "draws"} <= {f.name for f in dataclasses.fields(certify.SoftReport)}
    assert "n_checked" in {f.name for f in dataclasses.fields(certify.EntropyReport)}
    assert codes.WeightDistribution((1, 2, 1)).total == 4
    ctx = field.make_field(3)
    assert (ctx.k0, ctx.modulus.bit_length(), len(ctx.basis)) == (3, 4, 3)
    assert all(type(row) is int for row in linalg.sample_binary_code(6, 3, 1).rows)
    assert [len(row) for row in linalg.sample_field_code(ctx, 4, 2, 1).rows] == [4, 4]
