#!/usr/bin/env python3
"""Compare two saved benchmark results.

    python3 perfbench/compare.py perfbench/out/results/A.json perfbench/out/results/B.json

Prints each metric of A and B and B's change against A. Refuses (exit
code 3) when the two results cannot be compared: a different workload or
mode, a non-release build, or a different host (CPU model, CPU count,
architecture or compiled target features).
"""

import json
import sys

HOST_KEYS = ("cpu_model", "nproc", "target_arch", "target_features")


def refusals(a, b):
    """Reasons the results `a` and `b` must not be compared (empty if none)."""
    why = []
    for key in ("workload", "trace"):
        if a.get(key) != b.get(key):
            why.append(f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}")
    sa, sb = a.get("stamp", {}), b.get("stamp", {})
    for side, s in (("A", sa), ("B", sb)):
        if s.get("profile") != "release":
            why.append(f"{side} is a {s.get('profile')!r} build, not release")
    if sa.get("profile") != sb.get("profile"):
        why.append(f"profile differs: {sa.get('profile')!r} vs {sb.get('profile')!r}")
    for key in HOST_KEYS:
        if sa.get(key) != sb.get(key):
            why.append(f"host differs in {key}: {sa.get(key)!r} vs {sb.get(key)!r}")
    return why


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as f:
        a = json.load(f)
    with open(argv[1], encoding="utf-8") as f:
        b = json.load(f)
    why = refusals(a, b)
    if why:
        for w in why:
            print(f"compare: refused: {w}", file=sys.stderr)
        return 3
    print(f"workload {a['workload']} trace {a['trace']}; "
          f"steal share A {a['stamp'].get('steal_share', 0):.3f}, "
          f"B {b['stamp'].get('steal_share', 0):.3f}")
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in sorted(set(ma) | set(mb)):
        va = ma.get(name, {}).get("value")
        vb = mb.get(name, {}).get("value")
        unit = (ma.get(name) or mb.get(name))["unit"]
        delta = f"{vb / va - 1:+.2%}" if va and vb is not None else "n/a"
        print(f"{name:48s} {va!s:>24} {vb!s:>24} {unit:>14} {delta:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
