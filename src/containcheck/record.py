"""The base of every immutable value class, plain slotted records, and of
every operational failure.

A record class lists its fields in `__slots__` (after those of its record
bases) and stores them from an explicit `__init__` with `setfield`, since
assignment on a finished record raises. Slots whose names start with `_`
hold private derived state (an index, say) and are not fields. Creating
a record class generates no code, so importing the package stays cheap,
and an explicit `__init__` builds a record as fast as a generated one.

Records behave as frozen dataclasses do:
- equal exactly when of the same class with equal compared fields (every
  field unless the class passes `compare=(...)`);
- hashed as the tuple of their compared fields, computed once and kept in
  the private `_hash` slot;
- printed as `Name(field=value, ...)` over every field;
- `AttributeError` on any assignment or deletion;
- copied and pickled by calling the class on the fields, so every
  record's `__init__` takes its fields in order.

Every record compares, hashes and prints from explicit stacks, not by
recursing into record-valued fields, so records nested to any depth (a
formula ten thousand operators deep, say) work too.
"""

from __future__ import annotations

from operator import attrgetter

#: Stores one field from a record's `__init__`, past the raising
#: `__setattr__`.
setfield = object.__setattr__


#: The default bound on the states a check explores (`check --cap`), here
#: so that the CLI reads it without loading the engine.
DEFAULT_STATE_CAP = 1_000_000


class OperationalError(Exception):
    """A failure of the input, the environment or the run's limits, not of
    the program: the CLI exits 2 with `error: <message>`. Any other
    exception reads as an internal error."""


class Record:
    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, compare: tuple[str, ...] | None = None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in klass.__dict__.get("__slots__", ())
            if not name.startswith("_")
        )
        compared = cls._fields if compare is None else compare
        if len(compared) > 1:
            key = attrgetter(*compared)
        elif compared:
            get = attrgetter(*compared)
            key = lambda record: (get(record),)
        else:
            key = lambda record: ()
        # One getter per class: the compared fields as a tuple.
        cls._key = staticmethod(key)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            for x, y in zip(a._key(a), b._key(b)):
                if isinstance(x, Record):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        stack = [self]
        while stack:
            record = stack[-1]
            fields = record._key(record)
            pending = [x for x in fields if isinstance(x, Record) and not hasattr(x, "_hash")]
            if pending:
                stack += pending
                continue
            stack.pop()
            # Every record field's hash is kept, so this hashes one level deep.
            setfield(record, "_hash", hash(fields))
        return self._hash

    def __repr__(self) -> str:
        pieces: list[str] = []
        # Pending work, last first: literal text, or a record to print.
        stack: list = [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, Record):
                pieces.append(item)
                continue
            pieces.append(f"{item.__class__.__qualname__}(")
            stack.append(")")
            fields = item._fields
            for i in range(len(fields) - 1, -1, -1):
                value = getattr(item, fields[i])
                stack.append(value if isinstance(value, Record) else repr(value))
                stack.append(f"{', ' if i else ''}{fields[i]}=")
        return "".join(pieces)

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
