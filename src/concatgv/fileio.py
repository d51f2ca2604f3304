"""Code file serialization.

One file per code:

    CODE v1 field=<hex modulus>/<k0> n=<n> k=<k>
    <row hex>
    ...

Rows are written message-on-left: k generator rows of length n, 1 <= k <= n.
A row packs its n field entries little-endian, entry alpha in bits
[alpha*k0, (alpha+1)*k0), printed as bare lowercase hex; for binary codes
(k0 = 1) this is the plain column bitmask, read as a ``BitMatrix`` row as it
stands; only an outer code unpacks its entries.  Concatenated codes are never
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


def dumps_code(code: BinaryCode | OuterCode) -> str:
    if isinstance(code, BinaryCode):
        ctx = make_field(1)
        n, k = code.n0, code.k0
        packed = code.gen.rows
    elif isinstance(code, OuterCode):
        ctx = code.ctx
        n, k = code.n, code.k
        packed = [sum(v << (a * ctx.k0) for a, v in enumerate(row)) for row in code.gen.rows]
    else:
        raise TypeError(f"cannot serialize {type(code).__name__}")
    if not 1 <= k <= n:  # parse_code would refuse it
        raise ValueError(f"code file needs 1 <= k <= n, got n={n} k={k}")
    lines = [f"CODE v1 field={ctx.modulus:#x}/{ctx.k0} n={n} k={k}"]
    lines.extend(f"{p:x}" for p in packed)
    return "\n".join(lines) + "\n"


def parse_code(text: str):
    """Parse a code file into (ctx, packed rows, n, k); each row is the int its
    hex line prints, entry alpha in bits [alpha*k0, (alpha+1)*k0)."""
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
    if not 1 <= k <= n:
        raise ValueError(f"code file needs 1 <= k <= n, got n={n} k={k}")
    ctx = make_field(k0, modulus)
    if len(lines) - 1 != k:
        raise ValueError(f"expected {k} generator rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        packed = int(ln, 16)
        if packed < 0 or packed >> (n * k0):
            raise ValueError(f"row {ln!r} does not fit {n} entries of {k0} bits")
        rows.append(packed)
    return ctx, tuple(rows), n, k


def load_outer_code(path) -> OuterCode:
    ctx, rows, n, _k = parse_code(Path(path).read_text(encoding="ascii"))
    mask = ctx.q - 1
    entries = [[(row >> (a * ctx.k0)) & mask for a in range(n)] for row in rows]
    return OuterCode(FieldMatrix(entries, n, ctx))


def load_binary_code(path) -> BinaryCode:
    ctx, rows, n, _k = parse_code(Path(path).read_text(encoding="ascii"))
    if ctx.k0 != 1:
        raise ValueError(f"{path}: inner codes must be binary, file field degree is {ctx.k0}")
    return BinaryCode(BitMatrix(rows, n))
