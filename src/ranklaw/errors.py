"""Exception hierarchy shared by the toolkit modules, and the input checks that raise it."""

import numpy as np


class RanklawError(Exception):
    """Base class for all toolkit errors."""


class IngestError(RanklawError):
    """Malformed input data or schema violation."""


class PanelGapError(IngestError):
    """A missing cell or year, an overflowing sum or a differing entity set, in
    `panel`, one of several."""

    def __init__(self, message: str, panel):
        super().__init__(message)
        self.panel = panel


class StatsError(RanklawError):
    """Invalid input to a statistics routine."""


class RankingError(RanklawError):
    """Invalid ranking input (empty map, mismatched entity sets)."""


class CorrelationError(RanklawError):
    """Invalid input to a correlation routine."""


class FitError(RanklawError):
    """Invalid input to a fitting routine."""


class RegimeError(RanklawError):
    """Invalid input to a regime-segmentation routine."""


class SimulationError(RanklawError):
    """Invalid urn-process configuration or exhausted capacity."""


def checked(record: type) -> type:
    """A subclass of the NamedTuple class `record`, named as it is, whose
    construction, _make and _replace included, runs record._check() if it has
    one and then makes every array field read-only, and whose != negates its
    ==, which the record may redefine (tuple's != would compare field by field)."""
    def __new__(cls, *args, **kwargs):
        self = record.__new__(cls, *args, **kwargs)
        self._check()
        for array in (field for field in self if isinstance(field, np.ndarray)):
            array.setflags(write=False)
        return self
    return type(record.__name__, (record,), {
        "__slots__": (), "__new__": __new__, "__ne__": object.__ne__,
        "_check": getattr(record, "_check", lambda self: None),
        "_make": classmethod(lambda cls, fields: cls(*fields)),
        "__module__": record.__module__, "__doc__": record.__doc__})


def require_finite(values, error: type[RanklawError], labels=None) -> None:
    """Raise `error` naming the first NaN or infinite entry of `values`.

    The entry is named by labels[i] when labels are given, else by position.
    Only NaN and +/-inf are refused: tied values are legal.
    """
    values = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        where = f"for {labels[i]!r}" if labels is not None else f"at position {i}"
        raise error(f"non-finite value {values[i]} {where}")


def scaled_back(value: float, power: int, name: str, error: type[RanklawError]) -> float:
    """value * 2^power, rounded only below the normal range; `error` names `name` past the range."""
    if not np.isfinite(value) or (value != 0 and np.frexp(value)[1] + power > 1024):
        raise error(f"the {name} is past the float range")
    return float(np.ldexp(value, power))


def id_sample(ids) -> str:
    """How many ids differ, and at most the first 10 of them, for a message."""
    ids = sorted(ids)
    more = f" and {len(ids) - 10} more" if len(ids) > 10 else ""
    return f"{len(ids)} ids: {', '.join(map(repr, ids[:10]))}{more}"
