"""Reference enumerations that the tests check the package's fast paths against."""

from typing import Iterable, Tuple

from concatgv.codes import OuterCode


def all_messages(outer: OuterCode) -> Iterable[Tuple[int, ...]]:
    """All q^k messages of the outer code, zero first, in odometer order
    (digit 0 varies fastest): the row order of ``codes.codeword_table``."""
    q = outer.ctx.q
    k = outer.k
    msg = [0] * k
    yield tuple(msg)
    for _ in range(q**k - 1):
        i = 0
        while msg[i] == q - 1:
            msg[i] = 0
            i += 1
        msg[i] += 1
        yield tuple(msg)
