import ast
import dataclasses
import functools
import inspect
import pathlib
import types

import pytest

import concatgv
from concatgv import certify, codes, field, linalg, moments, sweep
from concatgv.codes import BinaryCode, ConcatCode, OuterCode
from concatgv.field import FieldCtx
from concatgv.linalg import BitMatrix, FieldMatrix
from concatgv.sweep import SweepConfig

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


def _concat() -> ConcatCode:
    ctx = field.make_field(2)
    outer = OuterCode(FieldMatrix(((1, 2, 3),), 3, ctx))
    return ConcatCode(outer, BinaryCode(BitMatrix((0b101, 0b011), 3)))


# (a fresh object, its kept attribute, the module-level builder its first read calls
# once, or None where the value is built inline)
KEPT = [
    (lambda: BitMatrix((0b110, 0b011), 3), "echelon", (linalg, "_gf2_echelon")),
    (lambda: BitMatrix((0b110, 0b011), 3), "rref", (linalg, "_gf2_back_substitute")),
    (lambda: FieldMatrix(((1, 2, 3), (2, 3, 1)), 3, field.make_field(2)), "echelon", (linalg, "_field_echelon")),
    (lambda: FieldMatrix(((1, 2, 3), (2, 3, 1)), 3, field.make_field(2)), "rref", (linalg, "_field_back_substitute")),
    (lambda: BinaryCode(BitMatrix((0b101, 0b011), 3)), "span", (codes, "_symbol_tables")),
    (lambda: BinaryCode(BitMatrix((0b101, 0b011), 3)), "span_weights", (codes, "_weights")),
    (lambda: FieldCtx(3), "arrays", None),
    (_concat, "omega", None),
    (_concat, "g_masks", None),
    (_concat, "syndrome_masks", (FieldCtx, "packed_products")),
    (lambda: SweepConfig(2, 4, 4, 2, 1, 7), "epsilon", (sweep, "Fraction")),
    (lambda: SweepConfig(2, 4, 4, 2, 1, 7), "digest", (SweepConfig, "to_dict")),
]


@pytest.mark.parametrize("make, attr, builder", KEPT, ids=[f"{attr}-{i}" for i, (_, attr, _) in enumerate(KEPT)])
def test_each_kept_value_is_built_once_per_object(make, attr, builder, monkeypatch):
    obj = make()
    cls, builds, calls = type(obj), [], []
    kept = inspect.getattr_static(cls, attr)
    assert isinstance(kept, functools.cached_property)
    counted = functools.cached_property(lambda self: builds.append(1) or kept.func(self))
    counted.__set_name__(cls, attr)
    monkeypatch.setattr(cls, attr, counted)
    if builder is not None:
        owner, name = builder
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a: calls.append(1) or fn(*a))
    first = getattr(obj, attr)
    assert getattr(obj, attr) is first
    assert len(builds) == 1 and len(calls) == (builder is not None)


def test_no_module_touches_an_instance_dict():
    # a value derived from an object is kept by functools.cached_property, not
    # by a hand-written memo in the instance's __dict__
    for path in sorted(pathlib.Path(concatgv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not (isinstance(node, ast.Attribute) and node.attr == "__dict__"), (path.name, node.lineno)
            call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            assert not (call and node.func.id == "vars"), (path.name, node.lineno)


def test_no_module_calls_json_dump():
    # every report is rendered by sweep.reemit_json and the config hash by
    # sweep._CANONICAL, so json.dump and json.dumps are called nowhere
    for path in sorted(pathlib.Path(concatgv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                assert not {"dump", "dumps"} & {alias.name for alias in node.names}, (path.name, node.lineno)
            named = isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            assert not (named and node.value.id == "json" and node.attr in ("dump", "dumps")), (path.name, node.lineno)
