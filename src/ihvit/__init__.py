"""IH-ViT: hybrid CNN + dual-channel ViT defect classifier toolkit."""

import os

# Concurrency comes from IHVIT_THREADS: threads that share the model's calls
# (one per branch in a training step, one per branch and 4-image chunk in a
# forward without a tape) and the generated images.  BLAS threads on top would
# compete for the same cores, and results would depend on the BLAS thread
# count.  A value set in the environment still wins; it only takes effect
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
