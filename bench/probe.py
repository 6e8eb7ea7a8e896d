"""A fixed task that measures how fast the shared host runs Python now.

The speed of the host the benchmark runs on drifts by up to 1.7x over
seconds to minutes, in CPU time as much as in wall time, and on every
input at once.  run.py times this task between requests and multiplies
the run's times by scale(median probe time), so that the figures follow
the program and not the host.

The task does the kinds of work the program does, with none of its code:
building and indexing small tuples and strings, walking and rebuilding a
tree of tuples recursively, and tokenising text with a regular expression.
It never changes, so a program that gets slower still reads slower.

The program does not speed up as much as the probe when the host does.
On a 2-vCPU KVM guest the probe's median ranged over 17-33 ms between
runs, and request times went with the probe time to the power 0.55
(scaled-recommend) to 0.67 (large-theory-recommend): part of the
program's time, such as waiting for memory, does not follow the host's
speed.  Scaling by the plain ratio over-corrected fast phases by up to
25 %, so the ratio is raised to EXPONENT.
"""

from __future__ import annotations

import gc
import re
from time import perf_counter

# The probe's median on the machine where the baseline was measured (a
# 2-vCPU KVM guest, Python 3.11.7), so that scaled times read as times on
# that machine.
REFERENCE_S = 0.030
EXPONENT = 0.6

_TEXT = "\n".join(f'fun f{i} :: "nat => nat" where '
                  f'"f{i} (Suc n) = g{i} (f{i} n) x{i}"' for i in range(750))
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|\S")


def _tree(depth: int, i: int) -> tuple:
    if depth == 0:
        return ("leaf", i)
    return ("node", _tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))


def _mirror(t: tuple, k: int) -> tuple:
    if t[0] == "leaf":
        return ("leaf", t[1] % k)
    return ("node", _mirror(t[2], k), _mirror(t[1], k))


def _size(t: tuple) -> int:
    return 1 if t[0] == "leaf" else _size(t[1]) + _size(t[2])


def _work() -> None:
    index: dict[int, list] = {}
    for i in range(30000):
        key = ("n", i % 997, str(i))
        index.setdefault(key[1], []).append(key)
    for _ in range(2):
        _size(_mirror(_tree(12, 0), 7))
    counts: dict[str, int] = {}
    for token in _TOKEN.findall(_TEXT):
        counts[token] = counts.get(token, 0) + 1


def probe() -> float:
    """Wall time of one pass of the task, in seconds.  The collector is off
    meanwhile, so the size of the program's heap does not slow it."""
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        gc.enable()


def scale(probe_s: float) -> float:
    """Factor that brings times measured while the probe took `probe_s`
    to the reference speed."""
    return (REFERENCE_S / probe_s) ** EXPONENT
