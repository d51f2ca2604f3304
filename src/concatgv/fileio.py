"""Code file serialization.

One file per code:

    CODE v1 field=<hex modulus>/<k0> n=<n> k=<k>
    <row hex>
    ...

Rows are written message-on-left: k generator rows of length n.  A row packs
its n field entries little-endian, entry alpha in bits
[alpha*k0, (alpha+1)*k0), printed as bare lowercase hex; for binary codes
(k0 = 1) this is the plain column bitmask.  Concatenated codes are never
stored: they reference an outer and an inner file, and the derived omega is
always recomputed.
"""

from __future__ import annotations

import re
from pathlib import Path

from .codes import BinaryCode, OuterCode
from .field import make_field
from .linalg import BitMatrix, FieldMatrix

_HEADER_RE = re.compile(
    r"^CODE v1 field=0x([0-9a-fA-F]+)/(\d+) n=(\d+) k=(\d+)$"
)


def _pack_row(entries, k0: int) -> int:
    out = 0
    for alpha, v in enumerate(entries):
        out |= v << (alpha * k0)
    return out


def _unpack_row(packed: int, n: int, k0: int):
    mask = (1 << k0) - 1
    return tuple((packed >> (alpha * k0)) & mask for alpha in range(n))


def dumps_code(code: BinaryCode | OuterCode) -> str:
    if isinstance(code, BinaryCode):
        ctx = make_field(1)
        n, k = code.n0, code.k0
        packed = list(code.gen.rows)
    elif isinstance(code, OuterCode):
        ctx = code.ctx
        n, k = code.n, code.k
        packed = [_pack_row(row, ctx.k0) for row in code.gen.rows]
    else:
        raise TypeError(f"cannot serialize {type(code).__name__}")
    lines = [f"CODE v1 field={ctx.modulus:#x}/{ctx.k0} n={n} k={k}"]
    lines.extend(f"{p:x}" for p in packed)
    return "\n".join(lines) + "\n"


def parse_code(text: str):
    """Parse a code file into (ctx, rows-of-entry-tuples, n, k)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty code file")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise ValueError(f"bad code file header: {lines[0]!r}")
    modulus = int(m.group(1), 16)
    k0 = int(m.group(2))
    n = int(m.group(3))
    k = int(m.group(4))
    ctx = make_field(k0, modulus)
    if len(lines) - 1 != k:
        raise ValueError(f"expected {k} generator rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        packed = int(ln, 16)
        if packed < 0 or packed >> (n * k0):
            raise ValueError(f"row {ln!r} does not fit {n} entries of {k0} bits")
        rows.append(_unpack_row(packed, n, k0))
    return ctx, tuple(rows), n, k


def load_outer_code(path) -> OuterCode:
    ctx, rows, n, _k = parse_code(Path(path).read_text(encoding="ascii"))
    return OuterCode(FieldMatrix(rows, n, ctx))


def load_binary_code(path) -> BinaryCode:
    ctx, rows, n, _k = parse_code(Path(path).read_text(encoding="ascii"))
    if ctx.k0 != 1:
        raise ValueError(f"{path}: inner codes must be binary, file field degree is {ctx.k0}")
    bit_rows = tuple(_pack_row(row, 1) for row in rows)
    return BinaryCode(BitMatrix(bit_rows, n))
