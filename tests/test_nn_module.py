"""Unit tests for the Module/Parameter registry and hooks."""

import numpy as np
import pytest

from repro.nn import Linear, Module, Parameter, Sequential, SiLU


class Leaf(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.ones((2, 2)))

    def forward(self, x):
        return x @ self.weight.data


class Tree(Module):
    def __init__(self):
        super().__init__()
        self.a = Leaf()
        self.b = Leaf()

    def forward(self, x):
        return self.b(self.a(x))


def test_parameter_registration():
    leaf = Leaf()
    names = dict(leaf.named_parameters())
    assert list(names) == ["weight"]
    assert names["weight"].shape == (2, 2)


def test_nested_parameter_names():
    tree = Tree()
    names = [n for n, _ in tree.named_parameters()]
    assert names == ["a.weight", "b.weight"]


def test_named_modules_includes_root_and_children():
    tree = Tree()
    names = [n for n, _ in tree.named_modules()]
    assert names == ["", "a", "b"]


def test_num_parameters():
    assert Tree().num_parameters() == 8


def test_children_iteration():
    tree = Tree()
    assert len(list(tree.children())) == 2


def test_forward_hook_fires_and_removes():
    leaf = Leaf()
    seen = []
    remove = leaf.register_forward_hook(lambda m, i, o: seen.append(o.copy()))
    x = np.ones((1, 2))
    leaf(x)
    assert len(seen) == 1
    np.testing.assert_allclose(seen[0], x @ leaf.weight.data)
    remove()
    leaf(x)
    assert len(seen) == 1


def test_clear_forward_hooks():
    leaf = Leaf()
    leaf.register_forward_hook(lambda m, i, o: None)
    leaf.clear_forward_hooks()
    assert leaf._forward_hooks == []


def test_forward_not_implemented():
    with pytest.raises(NotImplementedError):
        Module()(np.zeros(1))


def test_apply_visits_all_modules():
    tree = Tree()
    visited = []
    tree.apply(lambda m: visited.append(type(m).__name__))
    assert visited == ["Tree", "Leaf", "Leaf"]


def test_sequential_order_and_len():
    seq = Sequential(Linear(4, 8), SiLU(), Linear(8, 2))
    assert len(seq) == 3
    out = seq(np.zeros((1, 4)))
    assert out.shape == (1, 2)


def test_register_module_replaces_attribute():
    tree = Tree()
    new_leaf = Leaf()
    tree.register_module("a", new_leaf)
    assert tree.a is new_leaf
    assert tree._modules["a"] is new_leaf


def test_hooks_fire_once_per_forward_and_late_hooks_take_effect():
    """A call dispatches hooks only when the module has some, so a hook on a
    quantized conv, on a fused Q/K/V child (which fires through
    ``run_forward_hooks``, not its own call) and on a float GroupNorm fires
    exactly once per forward, and a hook added between two forwards fires on
    the second.  GraphAnalyzer and the calibration collector rely on both."""
    from repro.models.blocks import AttentionBlock
    from repro.nn import Conv2d
    from repro.quant import quantize_model

    class Net(Module):
        def __init__(self):
            super().__init__()
            rng = np.random.default_rng(0)
            self.conv = Conv2d(3, 8, 3, padding=1, rng=rng)
            self.block = AttentionBlock(8, num_heads=2, rng=rng)

        def forward(self, x):
            return self.block(self.conv(x))

    net = quantize_model(Net())
    attn = net.block.attn
    calls = []

    def hook(module, args, output):
        calls.append((module, output.shape))

    for module in (net.conv, attn.to_q, attn.to_v, net.block.norm):
        module.register_forward_hook(hook)
    x = np.random.default_rng(1).standard_normal((2, 3, 4, 4))
    net(x)
    fired = [module for module, _ in calls]
    assert fired == [net.conv, net.block.norm, attn.to_q, attn.to_v]
    assert dict(calls)[attn.to_q] == (2, 16, 8)
    calls.clear()
    attn.to_k.register_forward_hook(hook)
    net(x)
    fired = [module for module, _ in calls]
    assert fired == [net.conv, net.block.norm, attn.to_q, attn.to_k, attn.to_v]
