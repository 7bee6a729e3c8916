"""Fresh-process worker for the classical families, so no `lru_cache`
carries over between (family, rank) operations.

    python3 perfbench/worker.py ready
    python3 perfbench/worker.py classical <family> <rank> [--no-pieces]
    python3 perfbench/worker.py enumerate <family> <rank>

Prints one JSON object.  Timing is done here, around the public calls, so
interpreter start stays out of the numbers; each span is
(name, start, end, calls) on the system-wide perf_counter clock.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import CAL_EVERY_S, calibrate  # noqa: E402


def _timed(spans, name, fn):
    start = time.perf_counter()
    out = fn()
    spans.append((name, start, time.perf_counter(), 1))
    return out


def classical(family: str, rank: int, pieces: bool) -> dict:
    """Build, specials, then d and (optionally) the special piece of every
    orbit, one span per call.  `orbit_s` is each orbit's time in both;
    `cals` are calibrations taken in this process before the build and
    then between orbits, at most CAL_EVERY_S apart."""
    from orbitduality import orbits

    cals = [calibrate()]
    last = time.perf_counter()
    spans = []
    poset = _timed(spans, "orbits.classical_poset",
                   lambda: orbits.classical_poset(family, rank))
    specials = _timed(spans, "orbits.specials", poset.specials)
    out = {"labels": list(poset.labels), "specials": list(specials), "cals": cals,
           "d": {}, "pieces": {}, "orbit_s": {}, "spans": spans}
    for a in poset.labels:
        if time.perf_counter() - last >= CAL_EVERY_S:
            cals.append(calibrate())
            last = time.perf_counter()
        start = time.perf_counter()
        out["d"][a] = _timed(spans, "orbits.bvls_dual", lambda: orbits.bvls_dual(poset, a))
        if pieces:
            out["pieces"][a] = list(_timed(spans, "orbits.special_piece_of",
                                           lambda: orbits.special_piece_of(poset, a)))
        out["orbit_s"][a] = time.perf_counter() - start
    return out


def enumerate_valid(family: str, rank: int) -> dict:
    from orbitduality import partitions

    size = 2 * rank + 1 if family == "B" else 2 * rank
    spans = []
    found = _timed(spans, "partitions.enumerate_valid",
                   lambda: partitions.enumerate_valid(size, family))
    return {"count": len(found), "spans": spans}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "ready":
        import orbitduality  # noqa: F401

        out = {"ready": True}
    elif mode == "classical":
        out = classical(argv[1], int(argv[2]), "--no-pieces" not in argv)
    elif mode == "enumerate":
        out = enumerate_valid(argv[1], int(argv[2]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
