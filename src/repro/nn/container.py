"""Module container."""

from __future__ import annotations

from typing import Iterator

from repro.nn.module import Module
from repro.tensor import Tensor

__all__ = ["Sequential"]


class Sequential(Module):
    """Apply sub-modules in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self._layers: list[Module] = []
        for i, layer in enumerate(layers):
            self.add(layer, name=str(i))

    def add(self, layer: Module, name: str | None = None) -> "Sequential":
        name = name if name is not None else str(len(self._layers))
        self._modules[name] = layer
        self._layers.append(layer)
        return self

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, index: int) -> Module:
        return self._layers[index]

    def __repr__(self) -> str:
        inner = ",\n  ".join(repr(layer) for layer in self._layers)
        return f"Sequential(\n  {inner}\n)"
