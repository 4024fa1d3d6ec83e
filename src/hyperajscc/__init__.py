"""Desk-scale laboratory for channel-adaptive joint source-channel coding.

Importing the package sets two glibc malloc parameters for the whole host
process (tensor._keep_the_heap): M_MMAP_THRESHOLD to 32 MiB and
M_TRIM_THRESHOLD to 64 MiB, so the conv ops' scratch stays mapped between
passes.  Other code in the process allocates under the same settings.  On
a C library without mallopt nothing is changed.
"""

from .channel import ChannelSymbols, awgn_transmit, power_normalize, snr_to_sigma2
from .layers import Conv2dLayer, DenseLayer, HyperLayer, HyperScale, ResNetBlock
from .metrics import SweepReport, compare_adaptive_vs_fixed, snr_sweep
from .models import (
    HyperAJSCCModel,
    LayerSpec,
    ModelConfig,
    build_model,
    compression_ratio,
    count_params,
    decode,
    encode,
    forward_pipeline,
)
from .tensor import Tensor, finite_diff_check
from .training import Adam, TrainConfig, cross_entropy_loss, mse_loss, train

__version__ = "0.1.0"
