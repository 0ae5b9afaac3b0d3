"""Known answers computed without tapecalc.

Everything here is plain Python over ``Fraction`` and lists, written from
the conventions the README fixes: entry (y, x) of a matrix is the weight
of output y given input x, ``f ; g`` applies f first, pairs are indexed
left-major, and the carrier of a polynomial concatenates its monomial
blocks in order.  The benchmark checks tapecalc's outputs against these.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod


# --- dense exact matrices ----------------------------------------------------

def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(y == x)) for x in range(n)] for y in range(n)]


def compose(first, second):
    """The matrix of ``first ; second``: second times first."""
    inner = len(first)
    cols = len(first[0]) if first else 0
    return [[sum((row[k] * first[k][x] for k in range(inner)), Fraction(0))
             for x in range(cols)] for row in second]


def chain_product(mats: dict, names) -> list[list[Fraction]]:
    """The matrix of ``[ n1 ] ; [ n2 ] ; ...`` for generator names."""
    result = identity(len(mats[names[0]][0]))
    for name in names:
        result = compose(result, mats[name])
    return result


def scaled_chain_product(nums: dict, names, denom: int):
    """chain_product for matrices nums[name] / denom, multiplying integer
    numerators and dividing once at the end."""
    n = len(nums[names[0]])
    acc = [[int(y == x) for x in range(n)] for y in range(n)]
    for name in names:
        m = nums[name]
        acc = [[sum(m[y][k] * acc[k][x] for k in range(n)) for x in range(n)]
               for y in range(n)]
    scale = denom ** len(names)
    return [[Fraction(v, scale) for v in row] for row in acc]


def pretty(rows) -> str:
    """The CLI's matrix format: rows of exact rationals."""
    return "[" + ", ".join(
        "[" + ", ".join(str(w) for w in row) + "]" for row in rows) + "]"


def first_difference(left, right):
    """First differing entry (y, x, left, right), columns first, rows
    ascending; None when the matrices are equal."""
    for x in range(len(left[0]) if left else 0):
        for y in range(len(left)):
            if left[y][x] != right[y][x]:
                return y, x, left[y][x], right[y][x]
    return None


# --- polynomial carriers -----------------------------------------------------
# A polynomial is a list of monomials; a monomial is a tuple of sort names.

def mono_size(u, carriers) -> int:
    return prod(carriers[s] for s in u)


def poly_product(p, q):
    return [u + v for u in p for v in q]


def _locate(p, carriers, idx):
    for block, u in enumerate(p):
        size = mono_size(u, carriers)
        if idx < size:
            return block, idx
        idx -= size
    raise IndexError("index outside the carrier")


def pair_index(p, q, carriers, x, y) -> int:
    """Carrier index in P (x) Q of the pair (x in P, y in Q)."""
    i, a = _locate(p, carriers, x)
    j, b = _locate(q, carriers, y)
    pq = poly_product(p, q)
    offset = sum(mono_size(u, carriers) for u in pq[:i * len(q) + j])
    return offset + a * mono_size(q[j], carriers) + b


def split_index(p, q, carriers, z):
    """Inverse of pair_index."""
    pq = poly_product(p, q)
    block, c = _locate(pq, carriers, z)
    i, j = divmod(block, len(q))
    a, b = divmod(c, mono_size(q[j], carriers))
    offset_p = sum(mono_size(u, carriers) for u in p[:i])
    offset_q = sum(mono_size(v, carriers) for v in q[:j])
    return offset_p + a, offset_q + b


def copier_tensor_copier(p, carriers) -> list[int]:
    """copier_P (x) copier_P as a function: output row of each input column."""
    pp = poly_product(p, p)
    n = sum(mono_size(u, carriers) for u in pp)
    out = []
    for z in range(n):
        x1, x2 = split_index(p, p, carriers, z)
        c1 = pair_index(p, p, carriers, x1, x1)
        c2 = pair_index(p, p, carriers, x2, x2)
        out.append(pair_index(pp, pp, carriers, c1, c2))
    return out


# --- objects -----------------------------------------------------------------

def expand(factors) -> str:
    """Normal form of a (x)-product of factors, each a list of summands
    (words of sorts, "" for 1), printed as the normalizer prints it."""
    result = [""]
    for summands in factors:
        result = [u + v for u in result for v in summands]
    if not result:
        return "0"
    return " (+) ".join(u or "1" for u in result)
