"""Neural-network layers on top of :mod:`repro.tensor`.

Provides the full stack the paper's three models require: dense and
convolutional layers (real and binarized), batch normalization, pooling,
dropout, activations, the cross-entropy loss, and a sequential container.
"""

from repro.nn.module import Module, Parameter
from repro.nn.linear import Linear
from repro.nn.conv import Conv1d, Conv2d, DepthwiseConv2d
from repro.nn.pooling import MaxPool1d, AvgPool1d, GlobalAvgPool2d
from repro.nn.norm import BatchNorm1d, BatchNorm2d, InputNorm
from repro.nn.activations import ReLU, HardTanh, Sign, Tanh, Identity
from repro.nn.dropout import Dropout
from repro.nn.container import Sequential
from repro.nn.loss import CrossEntropyLoss
from repro.nn.stochastic import stochastic_bits
from repro.nn.quant import quant_scale, IntegerDense, deploy_dense_int
from repro.nn.bitops import (pack_bits, unpack_bits, pad_correction,
                             packed_xnor_popcount, PackedBinaryDense,
                             PackedOutputDense, PackedBinaryConv1d,
                             PackedBinaryConv2d, pack_feature_map,
                             unpack_feature_map)
from repro.nn.binary import (
    BinaryLinear, BinaryConv1d, BinaryConv2d, BinaryDepthwiseConv2d,
    clip_latent_weights,
    to_bits, from_bits, xnor_popcount, dot_from_popcount, threshold_bits,
    FoldedBinaryDense, FoldedOutputDense,
    fold_batchnorm_sign, fold_batchnorm_output)
from repro.nn.noise import (DEFAULT_LN_MARGIN, flip_probability,
                            rram_read_noise, set_read_noise)

__all__ = [
    "Module", "Parameter",
    "Linear",
    "Conv1d", "Conv2d", "DepthwiseConv2d",
    "MaxPool1d", "AvgPool1d", "GlobalAvgPool2d",
    "BatchNorm1d", "BatchNorm2d", "InputNorm",
    "ReLU", "HardTanh", "Sign", "Tanh", "Identity",
    "Dropout",
    "Sequential",
    "CrossEntropyLoss",
    "BinaryLinear", "BinaryConv1d", "BinaryConv2d", "BinaryDepthwiseConv2d",
    "clip_latent_weights",
    "to_bits", "from_bits", "xnor_popcount", "dot_from_popcount",
    "threshold_bits",
    "FoldedBinaryDense", "FoldedOutputDense",
    "fold_batchnorm_sign", "fold_batchnorm_output",
    "stochastic_bits",
    "quant_scale", "IntegerDense", "deploy_dense_int",
    "pack_bits", "unpack_bits", "pad_correction", "packed_xnor_popcount",
    "PackedBinaryDense", "PackedOutputDense",
    "PackedBinaryConv1d", "PackedBinaryConv2d",
    "pack_feature_map", "unpack_feature_map",
    "DEFAULT_LN_MARGIN", "flip_probability", "rram_read_noise",
    "set_read_noise",
]
