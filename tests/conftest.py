"""Import ``ihvit`` before any test module imports numpy.

``ihvit`` sets the BLAS thread counts to 1 unless the environment sets
them, and BLAS reads them only when numpy first loads.  Importing it here
makes the suite run with the BLAS setting that library users and the
benchmark get.
"""

import ihvit  # noqa: F401
