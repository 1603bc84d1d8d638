"""The one load check of every setting: the domain of a section's field, and
the shape of an array setting."""

import dataclasses
import operator

import numpy as np

_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def check(section, **domains: str) -> None:
    """Make each field of section whose default is a tuple a read-only float64
    array of exactly the default's shape (a value of any other shape raises
    ValueError: nothing is broadcast), then raise ValueError naming the first
    field of section, in the order given, with an entry that is not finite or
    not in its domain: comparisons joined by "and", such as "> 0" or ">= 0 and
    <= 1"; "" admits every finite value.  A field whose default is an int
    admits whole numbers only."""
    integral = set()
    for f in dataclasses.fields(section):
        if type(f.default) is int:
            integral.add(f.name)
        elif type(f.default) is tuple:
            value = np.array(getattr(section, f.name), dtype=float)
            if value.shape != np.shape(f.default):
                raise ValueError(f"{f.name} must have shape {np.shape(f.default)}, "
                                 f"got {value.shape}")
            value.flags.writeable = False
            setattr(section, f.name, value)
    for name, domain in domains.items():
        value = getattr(section, name)
        entries = np.asarray(value, dtype=float)
        ok = np.isfinite(entries)
        if name in integral:
            ok &= entries == np.round(entries)
        for op, bound in (part.split() for part in domain.split(" and ") if part):
            ok &= _COMPARE[op](entries, float(bound))
        if not ok.all():
            kind = "a finite integer" if name in integral else "finite"
            raise ValueError(f"{name} must be {kind}{' and ' + domain if domain else ''}, "
                             f"got {np.asarray(value).tolist()}")
