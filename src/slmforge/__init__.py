"""slmforge: a desk-scale, self-contained speech-LLM laboratory.

Curate raw audio into high-quality utterances, pretrain a small
masked-prediction speech encoder on KMeans pseudo-labels, fine-tune it for
speech recognition with CTC, fuse it into a small frozen language model
through a trainable aligner, build chain-of-thought instruction data, and
evaluate with WER / CER / chrF.
"""

__version__ = "0.1.0"

import os

# One BLAS thread unless the caller chose otherwise: a threaded BLAS splits
# sums differently, so artifact bytes would depend on the host's cores. Set
# before the first numpy import, which is when BLAS reads these variables.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
