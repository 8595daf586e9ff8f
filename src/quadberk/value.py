"""Immutable value objects, the common base of the package's data types,
and ``rat``, the package's one coercion to an exact rational."""

from fractions import Fraction


def rat(x) -> Fraction:
    """x as a Fraction: x itself when its type is exactly Fraction (values
    are immutable, so sharing is safe), Fraction(x) otherwise.  Skips the
    abstract-base-class check Fraction(x) makes on a value that already is
    one; results and exceptions are Fraction(x)'s for every input."""
    return x if type(x) is Fraction else Fraction(x)


class Value:
    """An immutable record whose fields are its class's ``__slots__``.

    ``__init__`` takes one positional value per slot, in order; subclasses
    coerce and validate around it.  Instances of the same class are equal
    when their fields are, the hash is that of the field tuple, the repr
    reads ``Name(field=value, ...)``, and assignment or deletion of an
    attribute raises AttributeError.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__name__} takes {len(self.__slots__)} values, got {len(values)}"
            )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
