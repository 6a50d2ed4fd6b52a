"""The package's shared vocabulary: decisions, exit statuses and records.

Every decision string a verdict or lemma report can carry is defined here
once, with the exit status the command line gives it.  :class:`Record` is
the base of the package's immutable value types.  This module imports
nothing from the package, so every other module can import it.
"""

# decisions of the strong and robust checks; a budget that stops either one
# gives UNKNOWN
YES = "yes"
NO = "no"
UNKNOWN = "unknown"
ROBUSTLY_CRITICAL = "robustly_critical"
NOT_CRITICAL = "not_critical"
NONCANONICAL_BAD_COVER_FOUND = "noncanonical_bad_cover_found"

# outcomes of the lemma checks
ALL_PASS = "all_pass"
COUNTEREXAMPLE = "counterexample"
SKIPPED_PRECONDITION = "skipped_precondition"
TRUNCATED = "truncated"

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64

EXIT_STATUS = {
    YES: EXIT_YES,
    ROBUSTLY_CRITICAL: EXIT_YES,
    ALL_PASS: EXIT_YES,
    NO: EXIT_NO,
    NOT_CRITICAL: EXIT_NO,
    NONCANONICAL_BAD_COVER_FOUND: EXIT_NO,
    COUNTEREXAMPLE: EXIT_NO,
    UNKNOWN: EXIT_UNKNOWN,
    TRUNCATED: EXIT_UNKNOWN,
    SKIPPED_PRECONDITION: EXIT_UNKNOWN,
}


class Record:
    """Immutable record over the fields named in a subclass's ``__slots__``.

    Equal when of the same type with equal fields, hashed on the fields,
    shown as ``Name(field=value, ...)``.  A subclass sets its fields with
    ``object.__setattr__`` in its own ``__init__``, whose parameters are the
    fields in ``__slots__`` order; afterwards every assignment raises
    :class:`AttributeError`.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
