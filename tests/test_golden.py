"""Byte-identity gate: pinned sha256 of the sweep CSV + JSON.

For a fixed config and master seed every output byte is determined, and a
refactor must not move any of them.  The hashes below were captured from the
implementation before the binary message space moved to the numpy span
enumerator; a change that alters them changes results, not just code.
"""

import hashlib

import pytest

from concatgv.sweep import config_from_dict, emit_csv, emit_json, run_sweep

ALL_ON = {"run_nice": True, "run_soft": True, "run_entropy": True, "run_moments": True}

CONFIGS = {
    # the four benchmark workloads
    "ensemble": {"k0": 4, "n0": 8, "n": 6, "k": 3, "trials": 5},
    "certify": {"k0": 4, "n0": 8, "n": 4, "k": 2, "trials": 1, "toggles": {**ALL_ON, "r_list": [2]}},
    "lowrate": {"k0": 3, "n0": 9, "n": 6, "k": 2, "trials": 1, "toggles": {**ALL_ON, "r_list": [2]}},
    "moments": {"k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 1, "toggles": {"run_moments": True, "r_list": [2, 4]}},
    # N = 128: codewords span two 64-bit limbs
    "long": {"k0": 4, "n0": 16, "n": 8, "k": 2, "trials": 2, "equal_rate": False},
    # K = 20: more message bits than one enumeration block
    "wide": {"k0": 4, "n0": 8, "n": 6, "k": 5, "trials": 1, "equal_rate": False},
    # criterion-10 shape over the distance budget: Brouwer-Zimmermann forms at
    # most 1000 codewords (5 of the 6 trials close; seed 20260810's trial 1 does not)
    "montecarlo": {"k0": 4, "n0": 8, "n": 6, "k": 3, "trials": 3, "budgets": {"distance": 1000}},
    "toggles": {"k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 2, "toggles": {**ALL_ON, "r_list": [2, 4]}},
    # q = 65536: exact distance through a four-table inner fold, the enumerator
    # soft path and the entropy check
    "large": {"k0": 16, "n0": 18, "n": 2, "k": 1, "trials": 1, "equal_rate": False,
              "toggles": {**ALL_ON, "r_list": [2]}},
    # q = 4096, K = 48: a Brouwer-Zimmermann interval (distance its upper end),
    # and Monte Carlo soft through d_pmf and sample_pmf_many
    "largemc": {"k0": 12, "n0": 14, "n": 8, "k": 4, "trials": 2, "equal_rate": False,
                "toggles": {"run_soft": True}},
}

GOLDEN = {
    # re-pinned for the exact soft condition from the weight enumerator: in the
    # certify and lowrate digests (both seeds) soft_prob moved by at most 11 ulp
    # and soft_delta by at most 5765 ulp (relative 7.5e-13), to the correctly
    # rounded exact values; every other byte is unchanged
    ("certify", 20260810): "e654c302294a92a084ad684e2d89af73cb20e5333effb8a2843bc34def4869aa",
    # re-pinned for the closed-form water level: trial 0's entropy_min moved
    # from 2.0000000000000004 to the exact 2.0 (cap 1/4), one ulp
    ("certify", 1): "715517fc344468c2a12c33035bdb884e3682b744019de4813c8c24362530d372",
    ("ensemble", 20260810): "e84513b5f5791d8fa75dd76f8d3af1ca1f21d92697d8b5a6ac7c072334c38091",
    ("ensemble", 1): "cfc33d85887553cfd8b68d69a4f984e7f61949b6dcd2fc6c7d4900819577588f",
    # captured before a concatenated code's inner span became the fold of the
    # inner code's own tables
    ("large", 20260810): "2d353d645df4207be3563fcc5d403065ad9dd08314aeac24b8775ce27554e0a2",
    ("large", 1): "e27508459a1524f7e6ca77e11a8d06a3052c25f0f52798ea61eccaa5da562e7f",
    # re-pinned (with montecarlo) when Brouwer-Zimmermann replaced the Monte Carlo
    # distance: only distance, rel_distance, distance_exact and the two
    # rel_distance aggregates moved (CHANGES.md lists them, by tests/repin_diff.py)
    ("largemc", 20260810): "a5bb10c3422484cdcded45bcb9e88b51bbffa2f9cb87cf54e2d2eb2233a3184d",
    ("largemc", 1): "9b60aea92000291fb99d7f6a9d179d68fd095f5d435608e85f0fa797a29e1d1b",
    ("long", 20260810): "f574665aef8d1275ad6e36e070698e7573c62d25d8befa82cd95ba5ff7d2fce3",
    ("long", 1): "961d55df7c26db6421a30aede31c514dbd1597346a926a0cdfacda0f16cc5f09",
    ("lowrate", 20260810): "035faa04afaa43502e01cde1a57ef975016c4dacb53c46c2bab5cda23fbd3fe9",
    ("lowrate", 1): "ace2abb5178f046795d31d6ffb8d97459a38fbfc5d3fe04f25c0cdd4357efc50",
    ("moments", 20260810): "f7f4f0a94e825a07c3656205f91ecd2e2fe0935b0172fdfb7bf3eac35c9341f4",
    ("moments", 1): "e19c9512392fe5d5165cca0b44b23dac9ae3cd150c6e1a0adb93d8294358bfb0",
    ("montecarlo", 20260810): "a0121459869d3998f0ff40040ea10ce7f0d4489a1b033dd6afc7c1e8f20bed08",
    ("montecarlo", 1): "516fe6219fcd7220e30ea6d52761454afea8bd8db49e08ec07a20c90fc1900e7",
    ("toggles", 20260810): "31b3d43e3bd6e772f8591b537cf02ed38c7cc67ea7f756daaa2b54a836f7b895",
    ("toggles", 1): "e867a36f2d1e57fc73c02bbd9fb242222110cd330b4c56b0645d70ba7164dc76",
    ("wide", 20260810): "9e2f9c58e2a72ed3e703830bd4118c1e18b9ffb22928e560d4e6f8aee1a91dc1",
    ("wide", 1): "270c5ecdb424707fb876dc1722bbab7c47fd72a937c07a489fd5cdde5099ff51",
}


def sweep_digest(name: str, seed: int) -> str:
    cfg = config_from_dict({**CONFIGS[name], "master_seed": seed})
    rows, agg = run_sweep(cfg)
    text = emit_csv(rows, cfg) + emit_json(rows, agg, cfg)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("seed", [20260810, 1])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sweep_output_is_pinned(name, seed):
    assert sweep_digest(name, seed) == GOLDEN[name, seed]
