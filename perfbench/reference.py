"""A fixed yardstick computation for the speed of the machine right now.

The machine the benchmark runs on is shared: its speed drifts by tens of
percent over seconds.  Each child times ``reference()`` just before and
just after its workload, in the same process, and run.py scales every
time the child measured by ``NOMINAL_S / (mean reference time)``.  Times
are therefore reported in seconds at the speed where ``reference()``
takes ``NOMINAL_S``, and drift that slows workload and yardstick alike
cancels out.

The work mimics distsym's hot paths on fresh objects: validated frozen
dataclasses as dict keys, multiset splits with binomial weights, exact
Fraction sums, and parity tests on frozensets.  It uses no distsym code,
so a change to distsym cannot move it.  Never change this file: doing so
rescales every time the benchmark reports.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

# reference() on the 2-core machine the benchmark was written on, CPython 3.11.
NOMINAL_S = 0.125


@dataclass(frozen=True)
class _Parts:
    parts: tuple

    def __post_init__(self):
        if any(a < b for a, b in zip(self.parts, self.parts[1:])) or any(p <= 0 for p in self.parts):
            raise ValueError(self.parts)


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(k,) + p for k in range(min(n, largest), 0, -1) for p in _partitions(n - k, k)]


def reference(n: int = 8):
    classes = [(_Parts(a), _Parts(b)) for k in range(n, -1, -1)
               for a in _partitions(k) for b in _partitions(n - k)]
    z = {}
    for a, b in classes:
        v = 1
        for part, m in Counter(a.parts + b.parts).items():
            v *= (2 * part) ** m * factorial(m)
        z[(a, b)] = v
    f = {c: (-1) ** len(c[1].parts) * len(c[0].parts) for c in classes}
    g = {}
    for a, b in classes:
        total = 0
        for k in range(len(a.parts) + 1):
            for sub in combinations(a.parts, k):
                rest = list(a.parts)
                for x in sub:
                    rest.remove(x)
                total += comb(len(a.parts), k) * f.get((_Parts(tuple(rest)), b), 1)
        g[(a, b)] = total
    acc = Fraction(0)
    for c in classes:
        acc += Fraction(f[c] * g[c], z[c])
    singles = tuple(range(2 * n + 1))
    odd = 0
    for k in range(0, 5, 2):
        for a in combinations(singles, k):
            fa = frozenset(a)
            odd += sum(1 for b in combinations(singles, 2) if len(fa & frozenset(b)) % 2)
    return acc, odd
