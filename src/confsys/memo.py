"""One memo for methods whose results are kept per instance."""

from __future__ import annotations

from functools import wraps


def memo(method):
    """Cache method(self, *args) in a dict on self, keyed by all of args.

    Each instance holds its own table, so two algebras never share an
    entry.  The wrapper is a plain function in the class dict, which keeps
    the method patchable by name.  Callers share the cached results and must
    not mutate them.
    """
    attr = f"_memo_{method.__name__}"

    @wraps(method)
    def cached(self, *args):
        table = self.__dict__.setdefault(attr, {})
        if args not in table:
            table[args] = method(self, *args)
        return table[args]
    return cached
