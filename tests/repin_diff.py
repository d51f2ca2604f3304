"""Compare two sweep JSON reports for a golden re-pin.

    python tests/repin_diff.py OLD.json NEW.json

Prints one line per moved row cell, ``row <trial> <column>: <old> -> <new>``,
and per moved aggregate key, ``aggregate <key>: <old> -> <new>``, with the
distance in units in the last place when both values are floats.  Exits 1
if any other byte differs: the NEW file must equal the OLD file with only
those values replaced, rendered as the sweep renders it
(``json.dumps(doc, indent=2, ensure_ascii=True)`` plus a newline).  Not a
test module; pytest does not collect it.
"""

from __future__ import annotations

import json
import struct
import sys


def ulps(a: float, b: float) -> int:
    """How many doubles lie from a to b (the bit patterns ordered as integers)."""
    def ordered(x: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)

    return abs(ordered(a) - ordered(b))


def moved(old: dict, new: dict) -> list:
    """(where, key, old value, new value) for every row cell and aggregate key that moved."""
    cells = []
    if len(old["rows"]) == len(new["rows"]):
        for o, n in zip(old["rows"], new["rows"]):
            if o.keys() == n.keys():
                cells += [(f"row {o['trial']}", k, o[k], n[k]) for k in o if o[k] != n[k] or type(o[k]) is not type(n[k])]
    if old["aggregate"].keys() == new["aggregate"].keys():
        cells += [("aggregate", k, v, new["aggregate"][k]) for k, v in old["aggregate"].items() if v != new["aggregate"][k]]
    return cells


def main(argv: list) -> int:
    old_text, new_text = (open(path, encoding="ascii").read() for path in argv[1:3])
    old, new = json.loads(old_text), json.loads(new_text)
    cells = moved(old, new)
    for where, key, a, b in cells:
        far = f"  ({ulps(a, b)} ulp)" if type(a) is float and type(b) is float else ""
        print(f"{where} {key}: {json.dumps(a)} -> {json.dumps(b)}{far}")
    rows = {row["trial"]: row for row in old["rows"]}
    for where, key, _, b in cells:
        (old["aggregate"] if where == "aggregate" else rows[int(where.split()[1])])[key] = b
    same = json.dumps(old, indent=2, ensure_ascii=True) + "\n" == new_text
    print(f"{len(cells)} moved; every other byte {'identical' if same else 'DIFFERS'}")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
