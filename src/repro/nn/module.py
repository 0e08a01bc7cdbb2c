"""Module / Parameter base classes with registration and serialization."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.autograd import Tensor


class Parameter(Tensor):
    """A Tensor that a Module treats as trainable (requires_grad=True)."""

    def __init__(self, data, requires_grad: bool = True):
        super().__init__(data, requires_grad=requires_grad)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and ``Module`` instances as
    attributes; they are auto-registered and discoverable through
    :meth:`parameters` / :meth:`named_parameters`, serialized through
    :meth:`state_dict`, and switched between train/eval mode through
    :meth:`train` / :meth:`eval`.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        else:
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state saved with the state dict."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield f"{prefix}{name}", buf
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def num_parameters(self) -> int:
        """Total count of trainable scalars."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Mode / gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def to_dtype(self, dtype) -> "Module":
        """Cast all parameters and float buffers to ``dtype`` (in place)."""
        dtype = np.dtype(dtype)
        for _, param in self.named_parameters():
            param.data = param.data.astype(dtype, copy=False)
            if param.grad is not None:
                param.grad = param.grad.astype(dtype, copy=False)
        # One cast per array: modules registering the same buffer keep
        # sharing it.
        casts: dict[int, np.ndarray] = {}
        for _, module in self.named_modules():
            for buf_name, buf in list(module._buffers.items()):
                if buf.dtype.kind == "f" and buf.dtype != dtype:
                    cast = casts.get(id(buf))
                    if cast is None:
                        cast = casts[id(buf)] = buf.astype(dtype)
                    module._buffers[buf_name] = cast
                    object.__setattr__(module, buf_name, cast)
        return self

    # ------------------------------------------------------------------
    # Serialization (flat npz-compatible dict of ndarrays)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[f"{name}__buffer"] = buf.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        consumed = set()
        for name, param in params.items():
            if name not in state:
                raise KeyError(f"missing parameter {name!r} in state dict")
            value = np.asarray(state[name])
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"expected {param.data.shape}, got {value.shape}"
                )
            param.data[...] = value
            consumed.add(name)
        # Restore buffers in place (module attributes alias the arrays).
        # A buffer registered by several modules is one array: every key
        # naming it must carry the same value, or loading would keep
        # only the last one.
        loaded: dict[int, str] = {}
        for full_name, module in self.named_modules():
            prefix = f"{full_name}." if full_name else ""
            for buf_name, buf in module._buffers.items():
                key = f"{prefix}{buf_name}__buffer"
                if key not in state:
                    continue
                first = loaded.setdefault(id(buf), key)
                if first != key:
                    value = np.asarray(state[key]).astype(buf.dtype, copy=False)
                    if not np.array_equal(buf, value, equal_nan=True):
                        raise ValueError(
                            f"{key!r} and {first!r} name one shared buffer "
                            "but the state dict gives them different values"
                        )
                buf[...] = state[key]
                consumed.add(key)
        unexpected = set(state) - consumed
        if unexpected:
            raise KeyError(f"unexpected keys in state dict: {sorted(unexpected)}")

    def save(self, path: str) -> None:
        """Save parameters + buffers as a compressed npz archive."""
        np.savez_compressed(path, **self.state_dict())

    def load(self, path: str) -> None:
        with np.load(path) as archive:
            self.load_state_dict({k: archive[k] for k in archive.files})

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines = [
            f"  ({name}): {module!r}".replace("\n", "\n  ")
            for name, module in self._modules.items()
        ]
        header = self.__class__.__name__ + self._extra_repr()
        if not child_lines:
            return header
        return header + "(\n" + "\n".join(child_lines) + "\n)"

    def _extra_repr(self) -> str:
        return ""
