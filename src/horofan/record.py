"""Immutable value records, their fields stored in `__slots__`.

A subclass of `Record` gets what a frozen standard-library data class
would give it: its annotated names are its fields, in order; `__init__`
takes them by position or keyword, a value in the class body being the
field's default (shared, so immutable), and ends by calling
`__post_init__` if the class has one; `__eq__` compares the fields of two
records of the same type only, `__hash__` hashes them, `__repr__` is
`Name(field=value, ...)`; assignment and deletion raise `AttributeError`
(`__post_init__` coerces through `object.__setattr__`).  A method that
the class body defines itself is kept.

The standard-library data classes are deliberately not used: importing
that module loads eleven more stdlib modules (`inspect`, `ast`, `dis`,
`tokenize`, ...), and with building the value types (sixteen then,
thirteen now) it took about 25 ms of a 110-135 ms cold start of `horofan`
on a 2-core VM, where a whole `classify` takes 2-5 ms.  Here a class
costs one `exec` of its generated methods, and `__init__` fills the slots
through their descriptors, faster than `object.__setattr__`.
"""


class _RecordType(type):
    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        defaults = {f: ns.pop(f) for f in fields if f in ns}
        ns["__slots__"] = fields
        cls = super().__new__(mcls, name, bases, ns)
        params = "".join(f", {f}=_d[{f!r}]" if f in defaults else f", {f}"
                         for f in fields)
        sets = "".join(f"\n _set_{f}(self, {f})" for f in fields)
        post = "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        own = "".join(f"self.{f}," for f in fields)
        other = "".join(f"o.{f}," for f in fields)
        env = {f"_set_{f}": getattr(cls, f).__set__ for f in fields}
        env["_d"] = defaults
        exec(f"def __init__(self{params}):{sets}{post}\n pass\n"
             f"def __eq__(self, o):\n"
             f" if o.__class__ is not self.__class__: return NotImplemented\n"
             f" return ({own}) == ({other})\n"
             f"def __hash__(self): return hash(({own}))\n", env)
        for method in ("__init__", "__eq__", "__hash__"):
            if method not in ns:
                setattr(cls, method, env[method])
        return cls


class Lookup:
    """A slot beside a record's fields, which its equality, hash and repr
    do not read: one lookup map, which `__post_init__` builds once."""
    __slots__ = ("_lookup",)


class Record(metaclass=_RecordType):
    def __repr__(self) -> str:
        values = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
