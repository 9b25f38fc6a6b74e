"""One OpenBLAS thread for a block of pftau's own work: on the mid-size moment
products extra pool threads buy no wall time, and their idle workers spin.
With no OpenBLAS found (MKL or Accelerate builds) `one_thread` does nothing.
"""
from contextlib import contextmanager
from functools import cache


@cache
def openblas():
    """(get, set) thread-count functions of NumPy's bundled OpenBLAS, or None."""
    import ctypes
    from pathlib import Path
    import numpy
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
            get, put = (getattr(handle, name.format(op), None) for op in ("get", "set"))
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                return get, put
    return None


@contextmanager
def one_thread():
    """Pin the pool to one thread; restore its count on return or error."""
    if (found := openblas()) is None:
        yield
        return
    get, put = found
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
