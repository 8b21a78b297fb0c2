"""Module system: parameter containers with PyTorch-like ergonomics.

``Module`` auto-registers parameters, buffers and child modules assigned as
attributes, provides ``parameters()`` / ``named_parameters()`` traversal,
``train()`` / ``eval()`` mode switching, and ``state_dict`` save/load. The
workloads in :mod:`repro.workloads` are built on this base.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is a trainable model parameter."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural network modules."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- attribute registration ------------------------------------------------

    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. BatchNorm running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -----------------------------------------------------------

    def named_parameters(self, prefix: str = ""):
        # Pre-order over the module tree (a module's own parameters, then
        # each child's subtree in order), walked with an explicit stack:
        # nested generators would hand every parameter up through each
        # level, and a capture walks the tree two to four times.
        stack = [(prefix, self)]
        while stack:
            prefix, module = stack.pop()
            for name, p in module._parameters.items():
                yield (f"{prefix}{name}", p)
            stack.extend((f"{prefix}{name}.", child)
                         for name, child in reversed(module._modules.items()))

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def named_modules(self, prefix: str = ""):
        yield prefix.rstrip("."), self
        for name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{name}.")

    def children(self):
        return iter(self._modules.values())

    def num_parameters(self) -> int:
        """Total trainable parameter count (algorithm-level metric)."""
        return sum(p.size for p in self.parameters())

    def parameter_bytes(self) -> int:
        return sum(p.nbytes for p in self.parameters())

    # -- mode ------------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- state dict --------------------------------------------------------------

    def state_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {}
        for name, p in self._parameters.items():
            state[f"{prefix}{name}"] = p.data.copy()
        for name, b in self._buffers.items():
            state[f"{prefix}{name}"] = np.array(b, copy=True)
        for name, child in self._modules.items():
            state.update(child.state_dict(prefix=f"{prefix}{name}."))
        return state

    def load_state_dict(self, state: dict[str, np.ndarray], prefix: str = "") -> None:
        for name, p in self._parameters.items():
            key = f"{prefix}{name}"
            if key not in state:
                raise KeyError(f"missing parameter {key!r} in state dict")
            if state[key].shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: {state[key].shape} vs {p.data.shape}"
                )
            p.data[...] = state[key]
        for name in self._buffers:
            key = f"{prefix}{name}"
            if key in state:
                buf = self._buffers[name]
                buf[...] = state[key]
        for name, child in self._modules.items():
            child.load_state_dict(state, prefix=f"{prefix}{name}.")

    # -- call ---------------------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chain modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        for i, m in enumerate(modules):
            setattr(self, f"layer{i}", m)
        self._sequence = list(modules)

    def forward(self, x):
        for m in self._sequence:
            x = m(x)
        return x

    def __iter__(self):
        return iter(self._sequence)

    def __len__(self):
        return len(self._sequence)


class ModuleList(Module):
    """A list of modules that registers its children."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        self._items: list[Module] = []
        for m in modules or []:
            self.append(m)

    def append(self, module: Module) -> None:
        setattr(self, f"item{len(self._items)}", module)
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, idx: int) -> Module:
        return self._items[idx]
