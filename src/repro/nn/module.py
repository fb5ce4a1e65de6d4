"""Minimal module system for pure-numpy neural network inference.

This is the foundation the whole reproduction stands on: every denoising
model in :mod:`repro.models` is assembled from :class:`Module` subclasses, and
the Ditto machinery in :mod:`repro.core` discovers layers through the module
tree (``named_modules``) and observes activations through forward hooks.

The design intentionally mirrors the small, explicit subset of
``torch.nn.Module`` that the paper's tooling relies on (parameter registry,
submodule registry, hooks) without any autograd - the reproduction only ever
runs inference.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Tuple

import numpy as np

__all__ = ["Parameter", "Module"]


class Parameter:
    """A named tensor owned by a :class:`Module`.

    Parameters are thin wrappers around ``numpy.ndarray`` so that the
    quantization stack can tell weights apart from transient activations when
    walking a module tree.
    """

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(shape={self.data.shape})"


HookFn = Callable[["Module", Tuple, np.ndarray], None]


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; assignment registers them automatically, exactly like the
    PyTorch convention the paper's hook-based simulator builds on.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_forward_hooks", [])

    # -- registration ----------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register ``module`` under ``name`` (used by containers)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- traversal --------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for name, module in self._modules.items():
            sub_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_parameters(sub_prefix)

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, module in self._modules.items():
            sub_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_modules(sub_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def num_parameters(self) -> int:
        """Total number of scalar parameters in the subtree."""
        return sum(p.size for p in self.parameters())

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        for module in self.modules():
            fn(module)
        return self

    # -- hooks --------------------------------------------------------------
    def register_forward_hook(self, hook: HookFn) -> Callable[[], None]:
        """Attach ``hook(module, inputs, output)``; returns a remover."""
        self._forward_hooks.append(hook)

        def remove() -> None:
            if hook in self._forward_hooks:
                self._forward_hooks.remove(hook)

        return remove

    def clear_forward_hooks(self) -> None:
        del self._forward_hooks[:]

    # -- execution ---------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError(
            f"{type(self).__name__} does not implement forward()"
        )

    def __call__(self, *args, **kwargs):
        output = self.forward(*args, **kwargs)
        self.run_forward_hooks(args, output)
        return output

    def run_forward_hooks(self, args: Tuple, output) -> None:
        """Fire the forward hooks as a call would.  A parent that computes
        a child's output itself (a fused projection) calls this so hooked
        analyses still observe the child."""
        for hook in list(self._forward_hooks):
            hook(self, args, output)

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lines: List[str] = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, module in self._modules.items():
            child = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child}")
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else "".join(lines)
