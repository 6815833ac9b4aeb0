"""scipy's compiled extensions, loaded without their packages.

``import scipy.linalg`` or ``import scipy.fft`` runs the package
``__init__`` (array-API and docstring machinery, 0.3-0.5 s); the compiled
extension alone loads in 1-5 ms.  The two used here are the BLAS wrappers
``scipy.linalg._fblas`` (the AR(1) solve) and pocketfft's
``scipy.fft._pocketfft.pypocketfft`` (the in-place real FFT).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading

__all__: list[str] = []

_LOCK = threading.Lock()


def extension(package: str, stem: str, what: str):
    """scipy's compiled module ``scipy.<package>.<stem>``, loaded once.

    It is taken from the installed scipy's ``package`` directory, found
    without importing scipy, and registered under its real name, so a later
    ``import scipy.<package>`` reuses it.  The lock makes the first calls of
    two threads load it once.  A scipy without it raises ``RuntimeError``
    naming ``what`` and the directories searched.
    """
    name = f"scipy.{package}.{stem}"
    with _LOCK:
        module = sys.modules.get(name)
        if module is None:
            scipy = importlib.util.find_spec("scipy")
            dirs = [os.path.join(d, *package.split("."))
                    for d in (scipy.submodule_search_locations if scipy else ())]
            found = importlib.machinery.PathFinder.find_spec(stem, dirs)
            if found is None:
                raise RuntimeError(
                    f"scipy's {what} extension {stem} not found in {dirs}")
            spec = importlib.util.spec_from_file_location(name, found.origin)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
        return module
