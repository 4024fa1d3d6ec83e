"""Desk-scale laboratory for channel-adaptive joint source-channel coding."""

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
