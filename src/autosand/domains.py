"""The one load check of every setting: the domain of a section's field."""

import dataclasses
import operator

import numpy as np

_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def check(section, **domains: str) -> None:
    """Raise ValueError naming the first field of section, in the order given,
    with an entry that is not finite or not in its domain: comparisons joined by
    "and", such as "> 0" or ">= 0 and <= 1"; "" admits every finite value.  A
    field whose default is an int admits whole numbers only."""
    integral = {f.name for f in dataclasses.fields(section) if type(f.default) is int}
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
