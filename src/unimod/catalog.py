"""Named example systems and graphs, constructible by string reference.

System entries are written in standard form, certified once by the tests
(each equals from_matrix of its defining rows), so building one runs no
elimination and no certification; the 0/1 Bixby-Seymour presentation is
only standardized.  Graph entries return multigraphs for the
graphic/cographic constructors.  References look like "catalog:<name>" or
"catalog:<name>:<param>".  A parameter whose object would hold more than
DEFAULT_CAP matrix entries or edges is refused before anything is built.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .errors import CatalogError
from .fileio import _DECIMAL
from .graphs import Multigraph
from .intlinalg import IntMatrix
from .systems import DEFAULT_CAP, UnimodularSystem, _standardize

# The 10-form rank-5 system of Bixby and Seymour, in its classical 0/1
# presentation (every maximal minor is 0 or +-2) ...
_BIXBY_SEYMOUR_RAW = (
    (1, 1, 0, 0, 0),
    (0, 1, 1, 0, 0),
    (0, 0, 1, 1, 0),
    (0, 0, 0, 1, 1),
    (1, 0, 0, 0, 1),
    (1, 0, 1, 0, 0),
    (0, 1, 0, 1, 0),
    (0, 0, 1, 0, 1),
    (1, 0, 0, 1, 0),
    (0, 1, 0, 0, 1),
)

# ... and re-expanded over its first five rows: its standard form, which
# makes it a totally unimodular presentation of the same system.
_BIXBY_SEYMOUR = (
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (0, 0, 1, -1, 1),
    (1, 0, 0, 1, -1),
    (-1, 1, 0, 0, 1),
    (1, -1, 1, 0, 0),
    (0, 1, -1, 1, 0),
)


def _bounded(name, entries):
    if entries > DEFAULT_CAP:
        raise CatalogError(f"{name} would hold {entries} entries, more than "
                           f"{DEFAULT_CAP}")


def _standard(n, entries):
    """The system whose standard form has these row-major entries, n per
    row, over its first n rows (the unit vectors, in order)."""
    return UnimodularSystem(n, IntMatrix(len(entries) // n, n, entries),
                            tuple(range(n)))


def _upsilon(m):
    if m < 1:
        raise CatalogError("upsilon needs m >= 1")
    _bounded("upsilon", m * m)
    return _standard(m, IntMatrix.identity(m).entries)


def _sigma(n):
    if n < 1:
        raise CatalogError("sigma needs N >= 1")
    _bounded("sigma", n)
    return _standard(1, (1,) * n)


def _pair2(_):
    return _standard(2, (1, 0, 0, 1))


def _triangle3(_):
    return _standard(2, (1, 0, 0, 1, 1, 1))


def _theta(n):
    if n < 2:
        raise CatalogError("theta needs N >= 2 parallel edges")
    _bounded("theta", n)
    return Multigraph.build(2, [(1, 2)] * n)


def _cycle(n):
    if n < 3:
        raise CatalogError("cycle needs N >= 3")
    _bounded("cycle", n)
    return Multigraph.build(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def _complete(n):
    if n < 2:
        raise CatalogError("complete needs N >= 2")
    _bounded("complete", n * (n - 1) // 2)
    return Multigraph.build(n, [(i, j) for i in range(1, n + 1)
                                for j in range(i + 1, n + 1)])


def _bixby_seymour_raw(_):
    return _standardize(_BIXBY_SEYMOUR_RAW)


def _bixby_seymour(_):
    return _standard(5, tuple(chain.from_iterable(_BIXBY_SEYMOUR)))


class CatalogEntry(NamedTuple):
    name: str
    kind: str          # "system" or "graph"
    takes_param: bool
    default_param: int | None
    description: str
    builder: object


_ENTRIES = [
    CatalogEntry("upsilon", "system", True, 1,
                 "m independent unit forms (the trivial one-form system, summed)",
                 _upsilon),
    CatalogEntry("sigma", "system", True, None,
                 "one form repeated N times", _sigma),
    CatalogEntry("pair2", "system", False, None,
                 "two independent forms in the plane", _pair2),
    CatalogEntry("triangle3", "system", False, None,
                 "three pairwise-independent forms in the plane", _triangle3),
    CatalogEntry("theta", "graph", True, None,
                 "two vertices joined by N parallel edges", _theta),
    CatalogEntry("cycle", "graph", True, None,
                 "the N-cycle graph", _cycle),
    CatalogEntry("complete", "graph", True, None,
                 "the complete graph on N vertices", _complete),
    CatalogEntry("bixby_seymour_raw", "system", False, None,
                 "Bixby-Seymour 10x5 system, 0/1 presentation (minors 0,+-2)",
                 _bixby_seymour_raw),
    CatalogEntry("bixby_seymour", "system", False, None,
                 "Bixby-Seymour 10x5 system, standard form", _bixby_seymour),
]

_BY_NAME = {e.name: e for e in _ENTRIES}


def entries():
    """All catalog entries, in fixed order."""
    return tuple(_ENTRIES)


def lookup(name):
    if name not in _BY_NAME:
        raise CatalogError(f"unknown catalog entry {name!r}")
    return _BY_NAME[name]


def make(name, param=None):
    """Build a catalog entry; param, for parametric entries, is a plain int or
    an ASCII decimal string (never coerced from 3.9, True, " 4 " or "1_0")."""
    entry = lookup(name)
    if not entry.takes_param:
        if param is not None:
            raise CatalogError(f"catalog entry {name!r} takes no parameter")
        return entry.builder(None)
    if param is None:
        if entry.default_param is None:
            raise CatalogError(f"catalog entry {name!r} needs a parameter, "
                               f"e.g. catalog:{name}:4")
        param = entry.default_param
    if isinstance(param, str) and _DECIMAL.fullmatch(param):
        param = int(param)
    if type(param) is not int:
        raise CatalogError(f"catalog parameter {param!r} is not an integer")
    return entry.builder(param)


def parse_reference(ref):
    """Split 'catalog:<name>[:<param>]' into (name, param or None)."""
    parts = ref.split(":")
    if parts[0] != "catalog" or len(parts) not in (2, 3) or not parts[1]:
        raise CatalogError(f"malformed catalog reference {ref!r}")
    return parts[1], (parts[2] if len(parts) == 3 else None)
