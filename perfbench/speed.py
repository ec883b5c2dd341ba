"""The machine's speed, sampled with a fixed pure-Python kernel between operations.

On a shared 2-vCPU virtual machine (Python 3.11.7) the speed one process
gets changed by up to 2x within seconds and from minute to minute, with no
steal time and with process CPU time tracking wall time.  So each
operation's wall time is also reported scaled to a reference speed:
``raw * REFERENCE_S / kernel``,
where ``kernel`` is the mean of the kernel samples just before and just
after the operation.  The kernel does what starchart's inner loops do
(frozen-dataclass nodes hashed into dicts, frozensets, sorting) without
calling starchart, so a change to the library cannot move it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter

REFERENCE_S = 0.001  # one kernel run at the reference speed
EVERY_S = 0.02  # sample at most this often
WARM_UP = 4


@dataclass(frozen=True)
class _Node:
    kind: str
    left: object = None
    right: object = None


_LEAVES = tuple(_Node(c) for c in "abc")


def kernel() -> float:
    """Seconds for one run of the fixed workload."""
    start = perf_counter()
    seen: dict = {}
    for i in range(120):
        node = _Node("s", _LEAVES[i % 3], _Node("t", _LEAVES[(i + 1) % 3], _LEAVES[i % 2]))
        seen[node] = seen.get(node, 0) + 1
        seen[(frozenset((node.left, node.right)), i % 11)] = sorted((i % 7, i % 5, i % 3))
    return perf_counter() - start


class Speed:
    """Kernel samples over a phase, and wall times scaled by them."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)
        for _ in range(WARM_UP):  # the first runs in a fresh interpreter are slower
            kernel()

    def sample(self) -> None:
        when = perf_counter()
        self.samples.append((when, kernel()))

    def sample_if_due(self) -> None:
        if not self.samples or perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` at the reference speed; needs samples before and after."""
        when = [w for w, _ in self.samples]
        before = self.samples[bisect_right(when, start) - 1][1]
        after = self.samples[min(bisect_left(when, end), len(when) - 1)][1]
        return (end - start) * REFERENCE_S / ((before + after) / 2)

    def relative(self) -> float:
        """Median machine speed over the phase, as a share of the reference."""
        kernels = sorted(k for _, k in self.samples)
        return REFERENCE_S / kernels[len(kernels) // 2]
