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
    Mutant(
        "src/orbitduality/poset.py",
        "if self._kept[0] is not self.dual_d:",
        "if self._kept[0] is None:",
        "the store keeps what it derived through the first dual_d it read, so "
        "rebinding dual_d leaves the old specials and pieces in place",
    ),
    Mutant(
        "src/orbitduality/poset.py",
        "        top = self.special_closure(label)  # a call that raises keeps nothing\n"
        "        return self._kept[2].setdefault(label, tuple(\n"
        "            b for b in self.labels if self.special_closure(b) == top))",
        "        top = self._kept[2].setdefault(label, ()) or self.special_closure(label)\n"
        "        self._kept[2][label] = tuple(b for b in self.labels"
        " if self.special_closure(b) == top)\n"
        "        return self._kept[2][label]",
        "special_piece takes its store entry before the checked computation "
        "and fills it after, so a call that raises leaves an empty piece "
        "behind; three lines for three, so the compiled-lines pin does not "
        "catch it first",
    ),
    Mutant(
        "src/orbitduality/poset.py",
        "dual = poset._paired_dual()",
        "dual = poset.dual_d",
        "duality_failures on an unpaired poset raises AttributeError instead "
        "of is_special's MissingTableError",
    ),
    # the packet queries' rows, one per parameter
    Mutant(
        "src/orbitduality/packets.py",
        "partners = (az_dual(ps, x).n_orbit for x in ps)",
        "partners = (x.n_orbit for x in ps)",
        "_rows reads the wavefront at each parameter's own orbit instead of "
        "its partner's",
    ),
    Mutant(
        "src/orbitduality/packets.py",
        "if orbit in piece}",
        "if orbit not in piece}",
        "weak_packet's special-piece side keeps the parameters whose partner "
        "orbit lies outside the piece",
    ),
    Mutant(
        "src/orbitduality/packets.py",
        "sorted(rows, key=lambda row: natural_key(row[0]))",
        "sorted(rows, key=lambda row: row[0])",
        "check_jiang lists the lower bounds by raw id, X10 before X2",
    ),
    # cli.parse_argv, the small parser ahead of argparse
    Mutant(
        "src/orbitduality/cli.py",
        'rest[0] == "--format" and rest[1] not in _FORMATS):',
        'rest[0] == "--format" and "--format" not in rest[2:]'
        " and rest[1] not in _FORMATS):",
        "only the last --format value is checked, so an earlier bad one "
        "passes where argparse exits; one line for one, so the "
        "compiled-lines pin does not catch it first",
    ),
    Mutant(
        "src/orbitduality/cli.py",
        'if args["bundle"] is None or not rest',
        "if not rest",
        "argv without --bundle is answered with bundle None where argparse "
        "exits",
    ),
    Mutant(
        "src/orbitduality/cli.py",
        'if len(rest) < 2 or rest[1][:1] == "-" or (',
        "if len(rest) < 2 or (",
        "an option value starting with - is taken as the value where "
        "argparse reads it as an option",
    ),
    Mutant(
        "src/orbitduality/cli.py",
        'if len(values) != len(names) or any(v[:1] == "-" for v in values):',
        "if len(values) != len(names):",
        "a positional starting with - is taken as a value where argparse "
        "reads it as an option",
    ),
    Mutant(
        "src/orbitduality/cli.py",
        "if len(values) != len(names) or",
        "if len(values) < len(names) or",
        "extra positionals are dropped where argparse exits on them",
    ),
    # the refined-duality laws and DualPair.check's fast path
    Mutant(
        "src/orbitduality/duality.py",
        "walk = ((bc, (bc[0], pair.g.sommers(*bc))) for bc in all_bar_classes(pair.g))",
        "walk = ()",
        "refined_duality_failures drops its Sommers fallback walk, so a "
        "collision ahead of a missing entry reports the missing entry",
    ),
    Mutant(
        "src/orbitduality/duality.py",
        "except (KeyError, TypeError):",
        "except KeyError:",
        "DualPair.check lets an unhashable pair such as ('A1', ['1']) escape "
        "its fast path as TypeError instead of UnknownLabelError",
    ),
    Mutant(
        "src/orbitduality/duality.py",
        "vars(flipped).update(g=self.gd, gd=self.g, _table=self._table)",
        "vars(flipped).update(g=self.gd, gd=self.g, _table=self._table, _flip=self)",
        "a flip keeps its pair, so every constructed pair sits in a "
        "reference cycle",
    ),
    Mutant(
        "src/orbitduality/duality.py",
        "if bc in self._table._sides[self.g][0]:",
        "if len(bc) == 2 or bc in self._table._sides[self.g][0]:",
        "DualPair.check's fast path passes any plain 2-tuple, one outside "
        "the tabulation such as ('E8', '1') included",
    ),
    # the doubled infinitesimal-character sum, bundle paths, weak-packet rows
    Mutant(
        "src/orbitduality/packets.py",
        "weyl_conjugate(h_art + h_lan, h_target, rs)",
        "weyl_conjugate(h_art + h_art, h_target, rs)",
        "check_infl_sum sums the Arthur coweight with itself",
    ),
    Mutant(
        "src/orbitduality/cli.py",
        "return data.parse_bundle(fh)",
        "return data.parse_bundle(path)",
        "the CLI hands parse_bundle the path, which reads one starting with "
        "[ or { as JSON text",
    ),
    Mutant(
        "src/orbitduality/cli.py",
        "az={az}",
        "az={pid}",
        "weak-packet's text prints each member's own id as its partner",
    ),
)
