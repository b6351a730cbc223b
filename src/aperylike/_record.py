"""Record classes built from their annotations, without ``dataclasses``.

``@record`` gives a class whose body lists annotated fields the methods that
``@dataclass(frozen=True)`` would: ``__init__`` taking the fields in order,
by position or keyword, with their defaults; ``__eq__`` comparing the
compared fields and only with an object of the same class, so a record never
equals a tuple; ``__hash__`` over the same fields; ``__repr__`` in the
``Name(field=value, ...)`` form; and ``__setattr__``/``__delattr__`` raising
``AttributeError``.  ``@record(frozen=False)`` leaves the instances mutable
and unhashable.  Instances keep their fields in ``__dict__``, so they pickle
and copy by the default protocol.

The methods are closures over the field names.  ``dataclasses`` writes each
one as source and runs it through ``exec``, and importing it pulls in
``inspect``; for this package's 19 record types that was most of the time
``import aperylike.cli`` took beyond the bare interpreter.
"""
from operator import attrgetter

_MISSING = object()


class field:
    """Options of one field: a default value or a zero-argument factory,
    and whether ``__eq__`` and ``__hash__`` look at it."""

    __slots__ = ("default", "default_factory", "compare")

    def __init__(self, *, default=_MISSING, default_factory=None, compare=True):
        self.default = default
        self.default_factory = default_factory
        self.compare = compare


def record(cls=None, /, *, frozen=True):
    """Class decorator; see the module docstring."""
    if cls is None:
        return lambda c: _build(c, frozen)
    return _build(cls, frozen)


def _build(cls, frozen):
    names, compared, defaults, factories = [], [], {}, {}
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, field):
            spec = field(default=spec)
        names.append(name)
        if spec.compare:
            compared.append(name)
        if spec.default_factory is not None:
            factories[name] = spec.default_factory
            delattr(cls, name)
        elif spec.default is not _MISSING:
            defaults[name] = spec.default
            setattr(cls, name, spec.default)
    names = tuple(names)
    count = len(names)
    key = _getter(compared)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls.__qualname__, names, defaults, factories, args, kwargs)
        self.__dict__.update(zip(names, args))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__ if frozen else None
    cls.__repr__ = __repr__
    if frozen:
        cls.__setattr__ = __setattr__
        cls.__delattr__ = __delattr__
    return cls


def _getter(names):
    """A function from a record to the tuple of its fields ``names``."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return attrgetter(*names) if names else lambda obj: ()


def _bind(cls_name, names, defaults, factories, args, kwargs):
    """The field values of a call with positional ``args`` and ``kwargs``;
    raises ``TypeError`` as a Python function with these parameters would."""
    if len(args) > len(names):
        raise TypeError(f"{cls_name}() takes {len(names)} positional arguments "
                        f"but {len(args)} were given")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in factories:
            values.append(factories[name]())
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{cls_name}() missing required argument {name!r}")
    for name in kwargs:
        if name in names:
            raise TypeError(f"{cls_name}() got multiple values for argument {name!r}")
        raise TypeError(f"{cls_name}() got an unexpected keyword argument {name!r}")
    return values
