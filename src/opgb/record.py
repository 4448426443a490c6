"""Frozen records: the one base of opgb's value types, in place of frozen dataclasses.

A subclass lists its fields as class annotations, in order; a class value
given with an annotation is that field's default. Record reads both once,
when the subclass is created, and gives it what @dataclass(frozen=True)
gave, without loading the dataclasses module or the inspect module it
needs:

* construction by position or keyword, then __post_init__;
* the dataclass repr, Name(field=value!r, ...);
* == only between records of one class, field by field in order;
* a hash of the tuple of fields;
* every assignment or deletion refused with AttributeError.

The class keyword exact=True passes every field through scalars.canon
before __post_init__, entry by entry in tuples and lists (as tuples).

Field values live in the instance __dict__, so a functools.cached_property
on a record works and stays out of repr, ==, hash and replace.
"""

from .scalars import canon


class Record:
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, exact=False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        cls._exact = exact

    def __init__(self, *args, **kwargs):
        names, kind = self._fields, type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{kind} takes {len(names)} fields but {len(args)} were given")
        values = dict(self._defaults)
        values.update(zip(names, args))
        for name in kwargs:
            if name not in names or name in names[: len(args)]:
                raise TypeError(f"{kind} got an unexpected or repeated field {name!r}")
        values.update(kwargs)
        if len(values) < len(names):
            missing = [name for name in names if name not in values]
            raise TypeError(f"{kind} is missing fields {missing}")
        if self._exact:
            for name in names:
                values[name] = _canon_deep(values[name])
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


def _canon_deep(value):
    """value through scalars.canon; a tuple or list entry by entry, as a tuple."""
    return tuple(map(_canon_deep, value)) if isinstance(value, (tuple, list)) else canon(value)


def fields(record):
    """The field names of a record or record class, in order."""
    return record._fields


def replace(record, **changes):
    """The record with the given fields changed, built again: exact fields and __post_init__ apply."""
    return type(record)(**{name: getattr(record, name) for name in record._fields} | changes)
