"""Kernel backend selection: compiled extension if available, numpy otherwise."""

try:
    from . import _kernels as _impl
except ImportError:
    from . import _kernels_py as _impl

BACKEND = _impl.BACKEND
rk4_bump_flow = _impl.rk4_bump_flow


def backends():
    """All importable kernel backends, keyed by name."""
    from . import _kernels_py

    found = {_kernels_py.BACKEND: _kernels_py}
    try:
        from . import _kernels
    except ImportError:
        pass
    else:
        found[_kernels.BACKEND] = _kernels
    return found
