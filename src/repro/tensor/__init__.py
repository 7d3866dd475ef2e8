"""A small reverse-mode autograd engine on numpy.

This package is the substrate replacing PyTorch for this reproduction:
a :class:`Tensor` with a dynamic tape, the primitive operator set, and
the convolution kernels needed by the SDM-PEB architecture and its
baselines.  Training and serving run the same ops: serving runs them
under :func:`no_grad`, which records no tape.  Import order matters
slightly: the ``ops_*`` modules attach operator methods onto
:class:`Tensor` when imported.
"""

from .tensor import (
    Tensor, no_grad, is_grad_enabled, as_array, ensure_tensor, DEFAULT_DTYPE,
    sanitize, is_sanitize_enabled, SanitizeError,
)
from . import ops_basic, ops_shape, ops_reduce  # noqa: F401  (method installation)
from .ops_basic import (
    add, sub, mul, div, neg, pow_, exp, log, sqrt, tanh, sigmoid, abs_,
    maximum, minimum, clip, where, matmul, einsum,
)
from .ops_shape import (
    reshape, transpose, swapaxes, moveaxis, concatenate, stack, pad, flip,
    broadcast_to, repeat_interleave, split,
)
from .ops_reduce import sum_, mean, max_, min_, var
from .ops_nn import (
    conv1d, conv3d, conv_transpose3d, upsample_nearest3d,
)
from . import functional

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled", "as_array", "ensure_tensor", "DEFAULT_DTYPE",
    "sanitize", "is_sanitize_enabled", "SanitizeError",
    "add", "sub", "mul", "div", "neg", "pow_", "exp", "log", "sqrt", "tanh",
    "sigmoid", "abs_", "maximum", "minimum", "clip", "where", "matmul", "einsum",
    "reshape", "transpose", "swapaxes", "moveaxis", "concatenate", "stack",
    "pad", "flip", "broadcast_to", "repeat_interleave", "split",
    "sum_", "mean", "max_", "min_", "var",
    "conv1d", "conv3d", "conv_transpose3d", "upsample_nearest3d",
    "functional",
]
