"""Immutable value records: named tuples that compare only within their class.

A record class subclasses ``record(name, fields)``, declares
``__slots__ = ()`` and adds its methods; a class that validates its fields
does so in ``__new__``.  Fields are read-only, ``repr`` reads
``Name(field=value, ...)``, and a record hashes as the tuple of its fields.
Unlike a bare named tuple, a record equals only records of its own class,
never a tuple or a record of another class with the same fields, and
``_make`` (so ``_replace`` too) builds through the class, so validation in
``__new__`` sees every construction.
"""

from __future__ import annotations

from collections import namedtuple


def _eq(self, other):
    return self.__class__ is other.__class__ and tuple.__eq__(self, other)


def _ne(self, other):
    return not _eq(self, other)


def _make(cls, iterable):
    return cls(*iterable)


def record(name: str, fields: str, defaults=None) -> type:
    """A named-tuple base class for the record ``name`` with ``fields``."""
    base = namedtuple(name, fields, defaults=defaults)
    base.__eq__, base.__ne__, base.__hash__ = _eq, _ne, tuple.__hash__
    base._make = classmethod(_make)
    return base
