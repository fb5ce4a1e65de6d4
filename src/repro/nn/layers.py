"""Float (FP32-reference) layers used to assemble the denoising models.

Layers fall into two classes that matter to Ditto:

* **linear layers** (:class:`Linear`, :class:`Conv2d`) - candidates for
  temporal/spatial difference processing; the quantizer swaps them for
  quantized wrappers.
* **non-linear functions** (:class:`SiLU`, :class:`GELU`, :class:`GroupNorm`,
  :class:`LayerNorm`, :class:`Softmax`) - these force difference/summation
  boundaries in Defo's static analysis (Section IV-B of the paper).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

import numpy as np

from . import backends
from . import functional as F
from .module import Module, Parameter

__all__ = [
    "Linear",
    "Conv2d",
    "GroupNorm",
    "LayerNorm",
    "SiLU",
    "GELU",
    "Softmax",
    "Identity",
    "Sequential",
    "ModuleList",
    "AvgPool2d",
    "Upsample",
    "Downsample",
]


def _kaiming(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    # math.sqrt: same correctly-rounded double as np.sqrt (weights are
    # bit-identical) without minting a strong np.float64 scalar (NEP 50).
    scale = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-scale, scale, size=shape)


class Linear(Module):
    """Fully-connected layer, a primary Ditto difference-processing target."""

    is_linear_op = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_kaiming(rng, (out_features, in_features), in_features))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        bias = self.bias.data if self.bias is not None else None
        # The bias epilogue writes C order; without a bias, copy the GEMM's
        # transposed accumulator into it.
        return np.ascontiguousarray(backends.active().linear(x, self.weight.data, bias))

    def extra_repr(self) -> str:
        return f"in={self.in_features}, out={self.out_features}"


class Conv2d(Module):
    """2-D convolution, a primary Ditto difference-processing target."""

    is_linear_op = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            _kaiming(rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in)
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        bias = self.bias.data if self.bias is not None else None
        return backends.active().conv2d(
            x, self.weight.data, bias, self.stride, self.padding
        )

    def extra_repr(self) -> str:
        return (
            f"in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding}"
        )


class GroupNorm(Module):
    """GroupNorm; a non-linear boundary for Defo."""

    is_nonlinear = True

    def __init__(self, num_groups: int, num_channels: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.weight = Parameter(np.ones(num_channels))
        self.bias = Parameter(np.zeros(num_channels))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.group_norm(x, self.num_groups, self.weight.data, self.bias.data, self.eps)


class LayerNorm(Module):
    """LayerNorm over the trailing dim; a non-linear boundary for Defo."""

    is_nonlinear = True

    def __init__(self, dim: int, eps: float = 1e-5, affine: bool = True) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.affine = affine
        if affine:
            self.weight = Parameter(np.ones(dim))
            self.bias = Parameter(np.zeros(dim))
        else:
            self.weight = None
            self.bias = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        weight = self.weight.data if self.weight is not None else None
        bias = self.bias.data if self.bias is not None else None
        return F.layer_norm(x, weight, bias, self.eps)


class SiLU(Module):
    is_nonlinear = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.silu(x)


class GELU(Module):
    is_nonlinear = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.gelu(x)


class Softmax(Module):
    is_nonlinear = True

    def __init__(self, axis: int = -1) -> None:
        super().__init__()
        self.axis = axis

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.softmax(x, self.axis)


class Identity(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x


class Sequential(Module):
    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = str(index)
            self.register_module(name, module)
            self._order.append(name)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def __iter__(self):
        return iter(self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)


class ModuleList(Module):
    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        self._order: List[str] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        name = str(len(self._order))
        self.register_module(name, module)
        self._order.append(name)

    def __iter__(self):
        return iter(self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]


class AvgPool2d(Module):
    def __init__(self, kernel: int = 2) -> None:
        super().__init__()
        self.kernel = kernel

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.avg_pool2d(x, self.kernel)


class Upsample(Module):
    """Nearest-neighbour upsample followed by a smoothing conv."""

    def __init__(self, channels: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.scale = 2
        self.conv = Conv2d(channels, channels, 3, padding=1, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.conv(F.upsample_nearest(x, self.scale))


class Downsample(Module):
    """Stride-2 conv downsample as used by DDPM/LDM UNets."""

    def __init__(self, channels: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.conv = Conv2d(channels, channels, 3, stride=2, padding=1, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.conv(x)
