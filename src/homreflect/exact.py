"""Exact arithmetic on non-negative integer arrays through float64 BLAS.

The walk engine and the elimination kernel form sums and products of
non-negative integer vectors and matrices.  Each proves an upper bound on
every value it forms, hands it to `Exact` together with its matrix side n
and the number of n-by-n matrices it holds at once, and does all of its
array arithmetic through the `Exact` object.  A stack of matrices along
leading axes counts as the number of matrices it stacks; the bound holds
for every entry of the stack, so stacking changes no arithmetic.

Below 2^53 the arrays are plain float64 and no reduction is applied:
every integer up to 2^53 is a float64, and a sum or product of two of them
is exact while the result stays below 2^53, which the bound gives for every
value the kernel forms, partial sums included, as all are non-negative.

Past it, every array carries one leading axis of residues modulo distinct
primes p with 2^21 <= p and 1024 p^2 < 2^53, ceil(b / 21) of them for a
b-bit bound, so that their product exceeds the bound.  Every result is
reduced modulo p, so entries stay below p, an elementwise product below
p^2, a dot product of at most 1024 terms (VERTEX_CAP bounds every inner
dimension) below 1024 p^2 < 2^53, and a sum of fewer than 2^31 reduced
entries below 2^53: each residue is exact.  So a sum of products is
reduced once, not once per product: `dot` contracts the last axes of two
arrays, at most 1024 entries long, and reduces only the sums (the delayed
reduction of Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  Only final
scalars are recombined, by the Chinese remainder theorem (von zur Gathen
and Gerhard, "Modern Computer Algebra", ch. 5); a value below the product
of the primes is the one number with its residues.

One cap, _CELL_CAP, bounds the float64 cells held at once: layers x
matrices x n^2, one layer on the plain path and one per prime otherwise.
It is checked before any array is allocated, and `admits` tells a kernel
beforehand whether optional tables still fit under it.  At 2^26 cells (512 MB) it
admits every walk engine the former int64 path ran on a host with degree
lcm L >= 2.  That path needed n^2 L^2k (L/delta)^2 < 2^62, so 2k < 62 -
2 log2 n: from n = 512 up the engine is plain with at most max(4, 2k + 1)
< 63 - 2 log2 n matrices, and below that it needs at most 3 layers of them.
"""

from __future__ import annotations

from itertools import chain, islice
from math import isqrt, prod

import numpy as np

from .graphs import VERTEX_CAP, CapabilityError, Graph

_PLAIN_LIMIT = 1 << 53
_CELL_CAP = 1 << 26


_LOW, _TOP = 1 << 21, isqrt(((1 << 53) - 1) // VERTEX_CAP)  # the window of primes
_WINDOW_PRIMES = 58905  # the primes in the window; a test counts them with a full sieve
_SEGMENT = 1 << 12  # numbers sieved at once


def _descending_primes():
    """The primes p with 2^21 <= p and 1024 p^2 < 2^53, largest first: the
    window is sieved from its top down, one segment at a time, by the
    primes up to its square root."""
    small = np.ones(isqrt(_TOP) + 1, dtype=bool)
    small[:2] = False
    for q in range(2, isqrt(isqrt(_TOP)) + 1):
        if small[q]:
            small[q * q::q] = False
    small = np.flatnonzero(small).tolist()
    hi = _TOP + 1
    while hi > _LOW:
        lo = max(_LOW, hi - _SEGMENT)
        segment = np.ones(hi - lo, dtype=bool)
        for q in small:
            segment[-lo % q::q] = False
        yield from (np.flatnonzero(segment)[::-1] + lo).tolist()
        hi = lo


_stream = _descending_primes()
_found: list[int] = []  # the primes taken from _stream so far, largest first


def _primes(count: int) -> list[int]:
    """The `count` largest primes of the window, largest first.  Only the
    segments they lie in are sieved, and the primes found are kept for
    later calls: a b-bit bound takes ceil(b / 21) of the window's 58,905,
    ten or so for the counts and walk sums of the benchmark."""
    _found.extend(islice(_stream, max(0, count - len(_found))))
    return _found[:count]


def adjacency(g: Graph) -> np.ndarray:
    """The 0/1 adjacency matrix of g as float64."""
    degrees = np.fromiter(map(len, g.adj), dtype=np.intp, count=g.n)
    rows = np.repeat(np.arange(g.n), degrees)
    cols = np.fromiter(chain.from_iterable(g.adj), dtype=np.intp, count=len(rows))
    adj = np.zeros((g.n, g.n))
    adj[rows, cols] = 1
    return adj


def _layers(bound: int) -> int:
    """The residue layers a bound needs: none on the plain path."""
    return 0 if bound < _PLAIN_LIMIT else -(-bound.bit_length() // 21)


def admits(bound: int, n: int, matrices: int) -> bool:
    """Whether Exact(bound, n, matrices) stays within the cell cap."""
    count = _layers(bound)
    return (max(count, 1) * matrices * n * n <= _CELL_CAP
            and count <= _WINDOW_PRIMES)


def require_bits_admitted(bits: int, n: int, matrices: int) -> None:
    """The CapabilityError of Exact(bound, n, matrices) for any bound of at
    least 2^bits, raised without forming one: when `matrices` matrices pass
    the cell cap on one layer, or when such a bound needs more residue
    layers than the window has primes.  From bits = 53 on, it is past 2^53
    and has more than `bits` bits, so it needs ceil((bits + 1) / 21) layers
    or more.  The message says "at least"."""
    layers = -(-(bits + 1) // 21) if bits >= 53 else 0
    if matrices * n * n > _CELL_CAP or layers > _WINDOW_PRIMES:
        raise _over_cap(max(layers, 1), n, matrices, "at least ")


def _over_cap(layers: int, n: int, matrices: int, qualifier: str) -> CapabilityError:
    return CapabilityError(
        f"exact products would hold {qualifier}{layers * matrices * n * n} float64 cells "
        f"({qualifier}{layers} residue layers), over the cap of {_CELL_CAP}")


class Exact:
    """Arithmetic for one kernel run whose values never exceed `bound`,
    holding at most `matrices` n-by-n matrices at once; a CapabilityError
    when that passes the cell cap.

    Arrays of the residue path carry the residue axis first; a kernel keeps
    to `...`-indexing over the last axes, so one code serves both paths.
    On the plain path the operations are numpy's own.  Every operation
    returns a new array and changes none it is given.
    """

    def __init__(self, bound: int, n: int, matrices: int):
        if not admits(bound, n, matrices):
            raise _over_cap(max(_layers(bound), 1), n, matrices, "")
        self.primes = tuple(_primes(_layers(bound)))
        if not self.primes:
            self.mul, self.matmul = np.multiply, np.matmul
            self.total, self.to_int = np.ndarray.sum, int
            return
        modulus = prod(self.primes)
        self._modulus = modulus
        self._crt = [modulus // p * pow(modulus // p, -1, p) for p in self.primes]
        self._column = np.array(self.primes, dtype=np.float64)

    def from_ints(self, values) -> np.ndarray:
        """A vector of non-negative Python integers, each at most the bound."""
        if not self.primes:
            return np.array(values, dtype=np.float64)
        return np.array([[v % p for v in values] for p in self.primes], dtype=np.float64)

    def lift(self, small: np.ndarray) -> np.ndarray:
        """An array of integers below 2^21, such as 0/1 entries or booleans,
        which every residue leaves as they are."""
        if not self.primes:
            return small
        return np.broadcast_to(small, (len(self.primes),) + small.shape)

    def _reduce(self, x: np.ndarray) -> np.ndarray:
        return np.remainder(x, self._column.reshape((-1,) + (1,) * (x.ndim - 1)), out=x)

    def mul(self, a, b) -> np.ndarray:
        return self._reduce(np.multiply(a, b, dtype=np.float64))

    def matmul(self, a, b) -> np.ndarray:
        return self._reduce(a @ b)

    def matvec(self, vec, m) -> np.ndarray:
        """The vector-matrix product vec @ m, over every leading axis the
        two share, so a stack of vectors meets the stack of matrices it is
        aligned with, not every one of them."""
        product = (vec[..., None, :] @ m)[..., 0, :]
        return self._reduce(product) if self.primes else product

    def dot(self, a, b) -> np.ndarray:
        """The sums of a * b over their last axis, which has at most 1024
        entries: the rows of two matrices of one shape, or two vectors,
        paired up entry by entry.  Each sum is reduced once, not each
        product, and no product array is formed."""
        sums = np.einsum("...i,...i->...", a, b)
        return self._reduce(sums) if self.primes else sums

    def total(self, a, axis) -> np.ndarray:
        return self._reduce(np.sum(a, axis=axis))

    def to_ints(self, vec) -> list[int]:
        """The Python integers a vector holds."""
        if not self.primes:
            return [int(v) for v in vec.tolist()]
        return [self.to_int(column) for column in vec.T]

    def to_int(self, scalar) -> int:
        """The Python integer whose residues a scalar holds."""
        return sum(int(r) * c for r, c in zip(scalar.tolist(), self._crt)) % self._modulus
