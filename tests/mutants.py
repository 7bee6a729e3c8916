"""The mutant catalogue: one-snippet faults the Tier-1 suite should catch.

Each entry names a file, relative to the repository root, a snippet ``old``
that occurs there exactly once, its replacement ``new``, and why the change
is a fault.  ``equivalent`` marks a mutant that changes no behaviour, so no
test can kill it; it stays in the catalogue, flagged.  ``run_mutants.py``
applies each mutant to a copy of the tree and records which test kills it.

A change that says its tests catch a fault adds that fault here; a change
that rewrites a mutated line updates its entry.  A survivor is mended by a
new test, not by dropping its entry.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    why: str
    equivalent: bool = False


MUTANTS = (
    Mutant(
        "src/orbitduality/poset.py",
        "if (a in specials) != (poset._image_key(a) in image)",
        "if (a not in specials) != (poset._image_key(a) in image)",
        "the specials law compares the image of d with the non-special orbits",
    ),
    Mutant(
        "src/orbitduality/poset.py",
        "return NilpotentPoset(poset.group_id, poset._below, {},",
        "return NilpotentPoset(poset.group_id, dict.fromkeys(poset.labels, ()), {},",
        "a partner's d_table hands over empty lower sets, so dual_d.leq is "
        "always false",
    ),
    Mutant(
        "src/orbitduality/poset.py",
        "    if len(least) != 1:\n        raise NonUniqueCoverError",
        "    if len(least) < 1:\n        raise NonUniqueCoverError",
        "_least_one returns the first of two least elements instead of raising",
    ),
    Mutant(
        "src/orbitduality/rootdata.py",
        "if all(c >= 0 for c in r)",
        "if any(c > 0 for c in r)",
        "every root's simple-root coordinates share one sign, so both filters "
        "keep the same roots",
        equivalent=True,
    ),
)
