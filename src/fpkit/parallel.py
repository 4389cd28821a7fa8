"""The order-preserving map the classification survey runs its candidates through."""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[fn(item) for item in items]``, in order, in the calling thread."""
    return [fn(item) for item in items]
