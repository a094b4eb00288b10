"""The loader of scipy's four special-function ufuncs. Each check runs in a
fresh interpreter, since this test process may have imported scipy.special
or scipy.stats already."""

import os
import subprocess
import sys

import pytest

NAMES = "('ndtr', 'ndtri', 'stdtr', 'stdtrit')"
SAME = ("import scipy.special; print([getattr(_special, n) is "
        f"getattr(scipy.special, n) for n in {NAMES}])")
ALL_SAME = "[True, True, True, True]\n"


def _run(code):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("SCIPY_ARRAY_API", None)  # which wraps scipy.special's exports
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_out_the_package_and_its_numpy_modules():
    """``import scalecorr.cli`` loads no scipy at all; the first use of a
    ufunc loads the extension alone, and leaves no stub in ``scipy``."""
    out = _run("import sys, scalecorr.cli; from scalecorr import _special; "
               "print(sorted(m for m in ('scipy', 'scipy.special') "
               "if m in sys.modules)); _special.ndtr; import scipy; "
               "print(sorted(m for m in ('scipy.special', "
               "'scipy.special._ufuncs', 'numpy.testing', 'numpy.f2py') "
               "if m in sys.modules), 'special' in vars(scipy))")
    assert out == "[]\n['scipy.special._ufuncs'] False\n"


def test_later_import_gets_the_real_package_and_the_same_objects():
    out = _run("from scalecorr import _special; _special.ndtr; "
               "import scipy.stats; "
               "print(scipy.stats.norm.cdf(0.0)); " + SAME)
    assert out == "0.5\n" + ALL_SAME


def test_an_imported_package_is_used():
    out = _run("import sys, scipy.special as package; "
               "from scalecorr import _special; "
               "print(sys.modules['scipy.special'] is package); " + SAME)
    assert out == "True\n" + ALL_SAME


def test_failed_bare_load_falls_back_to_the_package():
    out = _run(
        "import importlib, sys\n"
        "real = importlib.import_module\n"
        "def fail(name, *args):\n"
        "    if name == 'scipy.special._ufuncs':\n"
        "        raise ImportError('no bare load')\n"
        "    return real(name, *args)\n"
        "importlib.import_module = fail\n"
        "from scalecorr import _special\n"
        "_special.ndtr\n"
        "importlib.import_module = real\n"
        "print('numpy.testing' in sys.modules)\n" + SAME)
    assert out == "True\n" + ALL_SAME


def test_other_names_are_attribute_errors():
    from scalecorr import _special
    with pytest.raises(AttributeError, match="has no attribute 'ndtri_exp'"):
        _special.ndtri_exp
