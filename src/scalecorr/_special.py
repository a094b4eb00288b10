"""The four scipy special functions the package uses, without scipy.special.

``from scipy import special`` runs the package ``__init__``, whose array-API
layer imports numpy.testing, numpy.f2py, numpy.ma and numpy.random: about
half the start-up time and ~13 MB of peak RSS of a run. The functions
themselves live in the extension ``scipy.special._ufuncs``. Importing it by
name would still run the package ``__init__`` first, so a bare module stands
in as ``scipy.special`` (with the package's ``__path__``) while the
extension loads, and is then removed from ``sys.modules`` and from the
``scipy`` package. A later ``import scipy.special`` gets the real package,
which reuses the loaded extension: the names below are the very objects it
exports. ``scipy`` resolves a missing attribute by importing the submodule
(a module ``__getattr__``), so the stub is looked up with ``vars(scipy)``;
``getattr`` would import the whole package again. If scipy.special is
already imported, or the bare load fails, the package itself is used.

The extension, its OpenBLAS and libstdc++ hold ~5 MB of RSS, so they load
on the first access to any of the four names (a module ``__getattr__``),
not at import: raw and shuffled runs first need them for the significance
filter in ``correlation_matrix``, after price ingest and the scaling
stage. A raw run from a 1202 x 4000 returns file peaks in that stage, at
~76.0 MiB (in-process ``VmHWM``), the extension included; a shuffled run
from 1.2M price records peaks earlier, at ~52.4 MiB in ``preprocess``, and
the extension's load in ``correlation_matrix`` does not raise that peak.
Callers look the names up as ``special.X`` when they call them.
"""

import importlib
import os
import sys
import types


def _bare_ufuncs():
    import scipy
    stub = types.ModuleType("scipy.special")
    stub.__path__ = [os.path.join(os.path.dirname(scipy.__file__), "special")]
    sys.modules["scipy.special"] = stub
    try:
        return importlib.import_module("scipy.special._ufuncs")
    finally:
        if sys.modules.get("scipy.special") is stub:
            del sys.modules["scipy.special"]
        if vars(scipy).get("special") is stub:
            del scipy.special


def _load():
    if "scipy.special" in sys.modules:
        return sys.modules["scipy.special"]
    try:
        return _bare_ufuncs()
    except ImportError:
        from scipy import special
        return special


def __getattr__(name):
    names = ("ndtr", "ndtri", "stdtr", "stdtrit")
    if name not in names:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _load()
    globals().update((n, getattr(module, n)) for n in names)
    return globals()[name]
