"""Frozen value records, without the import cost of ``dataclasses``.

A subclass of ``Record`` lists its fields as class annotations, with
class-level defaults where it wants them.  It gets an ``__init__`` taking
the fields in order, ``__eq__`` within its own class and ``__hash__`` of
the field tuple, compiled once for its fields; ``order=True`` adds ``<``,
``<=``, ``>`` and ``>=`` over the field tuple.  Fields cannot be assigned
or deleted; ``__init__`` ends with ``__post_init__`` when there is one.
"""

_INIT = """\
def __init__(self, {args}):
{sets}
def __hash__(self):
    return hash(({mine},))
"""

_COMPARE = """\
def __{name}__(self, other):
    if other.__class__ is self.__class__:
        return ({mine},) {op} ({theirs},)
    return NotImplemented
"""

_ORDER = (("lt", "<"), ("le", "<="), ("gt", ">"), ("ge", ">="))


class Record:
    def __init_subclass__(cls, order=False):
        cls.__match_args__ = names = tuple(cls.__dict__["__annotations__"])
        defaults = {n: getattr(cls, n) for n in names if hasattr(cls, n)}
        sets = [f"    _set(self, {n!r}, {n})" for n in names]
        if hasattr(cls, "__post_init__"):
            sets.append("    self.__post_init__()")
        parts = {
            "args": ", ".join(f"{n}=_D[{n!r}]" if n in defaults else n for n in names),
            "sets": "\n".join(sets),
            "mine": ", ".join(f"self.{n}" for n in names),
            "theirs": ", ".join(f"other.{n}" for n in names),
        }
        src = _INIT.format(**parts)
        for name, op in (("eq", "=="),) + (_ORDER if order else ()):
            src += _COMPARE.format(name=name, op=op, **parts)
        methods = {}
        exec(src, {"_set": object.__setattr__, "_D": defaults}, methods)
        for name, fn in methods.items():
            setattr(cls, name, fn)

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
