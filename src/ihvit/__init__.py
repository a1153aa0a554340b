"""IH-ViT: hybrid CNN + dual-channel ViT defect classifier toolkit."""

import ctypes
import os
import sys

# OpenBLAS's own setter of its thread count: numpy's wheels rename it (a
# scipy_ prefix since numpy 2, a 64_ suffix for 64-bit-integer builds), and
# system builds keep the plain name
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads")
# numpy's core extension (numpy 2, then 1), which links the BLAS
_NUMPY_CORE = ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath")


def _pin_openblas(environ=os.environ, modules=sys.modules) -> bool:
    """Set the OpenBLAS that an imported numpy loaded to one thread through
    its setter; False, with nothing changed, when ``environ`` sets
    OPENBLAS_NUM_THREADS, numpy's core is not in ``modules``, or its BLAS
    exports none of ``_OPENBLAS_SETTERS``."""
    core = next((modules[name] for name in _NUMPY_CORE if name in modules), None)
    if "OPENBLAS_NUM_THREADS" in environ or core is None:
        return False
    try:
        # already loaded, so this only adds a reference; a symbol lookup on
        # the handle searches the libraries the extension links too
        lib = ctypes.CDLL(core.__file__)
    except (AttributeError, OSError):
        return False
    for name in _OPENBLAS_SETTERS:
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes = (ctypes.c_int,)
            setter.restype = None
            setter(1)
            return True
    return False


# Concurrency comes from IHVIT_THREADS: threads that share the model's calls
# (the ResNet branch and each ViT channel in a training step, one per branch
# and 4-image chunk in a forward without a tape) and the generated images.
# BLAS threads on top would compete for the same cores, and results would
# depend on the BLAS thread count.  A value set in the environment still
# wins.  OpenBLAS reads the variable once, when numpy loads it, so when
# numpy came first the count is set through OpenBLAS's setter instead; this
# check comes before the defaults below, so that it sees only the user's
# OPENBLAS_NUM_THREADS.
_pin_openblas()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

# glibc malloc, left to itself, serves each large array with its own mmap
# and unmaps it on free, and gives every thread that allocates an arena of
# its own.  A training step allocates and frees the same few hundred MB of
# activations and gradients on two threads, so each step faulted tens of
# thousands of pages back in.  One arena with fixed mmap and trim thresholds
# keeps that memory mapped from one step to the next.  Any of the matching
# environment variables leaves the allocator as the user set it.
_MALLOC_ENV = ("MALLOC_ARENA_MAX", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # glibc's malloc.h
# 64 and 256 MiB keep a B=8 step's memory mapped; thresholds of 256 and 512 MiB
# did too, but also kept freed image buffers and raised gen/augment peak RSS 10%
_MALLOC_SETTINGS = ((_M_ARENA_MAX, 1), (_M_MMAP_THRESHOLD, 64 << 20),
                    (_M_TRIM_THRESHOLD, 256 << 20))


def _tune_malloc(environ=os.environ) -> bool:
    """Apply ``_MALLOC_SETTINGS`` through glibc's ``mallopt``; False, with
    nothing changed, when ``environ`` sets any of ``_MALLOC_ENV`` or the C
    library is not glibc."""
    if any(var in environ for var in _MALLOC_ENV):
        return False
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # the parameter numbers above are glibc's
        mallopt = libc.mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOC_SETTINGS:
        mallopt(param, value)
    return True


_tune_malloc()

__version__ = "0.1.0"
