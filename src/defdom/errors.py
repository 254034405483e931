"""Shared error type for malformed inputs and violated preconditions, and
the `record` decorator for the package's immutable value types."""


class InputError(ValueError):
    """Raised when an input value breaks a documented precondition.

    The CLI maps this to exit code 2 so that usage errors stay distinct
    from negative verdicts.
    """


def record(cls):
    """Make `cls` an immutable value type, as `@dataclass(frozen=True)` does.

    The fields are the class's own annotations, in order, with no defaults.
    `__init__` takes them by position or keyword and then calls
    `__post_init__` if the class has one; equality compares field tuples
    between instances of the same class only; the hash is the field
    tuple's (so a record holding a dict is unhashable); `__repr__` reads
    `Name(field=value, ...)`; setting or deleting an attribute raises
    AttributeError.  It lives here, in a module every command already
    loads, because importing `dataclasses` pulls in `inspect` and `ast`,
    which costs a CLI job more start-up than solving a small instance.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    # A generated signature gives the exact TypeError messages of a dataclass
    # for a missing, extra or repeated argument.
    body = "".join(f"    _set(self, {name!r}, {name})\n" for name in names)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    namespace: dict = {}
    exec(f"def __init__(self, {', '.join(names)}):\n{body}",
         {"_set": object.__setattr__}, namespace)

    def values(self) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (namespace["__init__"], __eq__, __hash__, __repr__,
                   __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
