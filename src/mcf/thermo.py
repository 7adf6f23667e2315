"""Pressure estimation over accelerated loop systems and dimension bounds.

Acceleration on a positive loop turns the induction into a full shift over a
countable alphabet of return words.  Truncating that alphabet at a word
length L and summing spectral radii of n-fold products gives finite
approximations of the Gurevic-Sarig partition sums; the parameter kappa at
which the truncated pressure vanishes calibrates Hausdorff dimension bounds
for the surviving sets of subgraphs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graph import GraphError, find_positive_path

MEMORY_GUARD_FLOATS = 2 * 10**8


@dataclass
class Letter:
    word_labels: tuple  # labels of the return word w (possibly empty)
    word_edges: tuple
    matrix: tuple  # exact integer matrix of gamma_star . w


@dataclass
class PressureEstimate:
    kappa: float
    n: int
    L: int
    letters: int
    base_vertex: str
    gamma_star: tuple  # label sequence
    residual: float
    bracket: tuple
    restricted: bool = False

    def to_dict(self):
        return {
            "kappa": self.kappa,
            "n": self.n,
            "L": self.L,
            "letters": self.letters,
            "base_vertex": self.base_vertex,
            "gamma_star": list(self.gamma_star),
            "residual": self.residual,
            "bracket": list(self.bracket),
            "restricted": self.restricted,
        }


def _kmp_table(pattern):
    t = [0] * len(pattern)
    k = 0
    for i in range(1, len(pattern)):
        while k and pattern[i] != pattern[k]:
            k = t[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        t[i] = k
    return t


def loop_words(system, base, max_length, avoid, allowed_edges=None):
    """Loops at ``base`` (as edge index tuples) of length <= max_length that
    do not contain the edge sequence ``avoid`` as a factor.  Yields the
    empty loop first, then the others depth-first in edge order."""
    avoid = tuple(avoid)
    table = _kmp_table(avoid) if avoid else []
    yield ()
    stack = [(base, (), 0)]
    while stack:
        v, path, k = stack.pop()
        if len(path) == max_length:
            continue
        for i in reversed(system.out_edges(v)):
            if allowed_edges is not None and i not in allowed_edges:
                continue
            kk = k
            while kk and avoid[kk] != i:
                kk = table[kk - 1]
            if avoid and avoid[kk] == i:
                kk += 1
            if kk == len(avoid):
                continue  # extension would contain the forbidden factor
            e = system.edges[i]
            p2 = path + (i,)
            if e.dst == base:
                yield p2
            stack.append((e.dst, p2, kk))


def build_induced_alphabet(system, gamma_star, max_length, allowed_edges=None,
                           max_letters=200000):
    """Return-word letters of the acceleration on the cylinder of gamma_star.

    Matrices always come from ``system`` even when the loops are confined to
    ``allowed_edges``; that is what restricting a larger ambient graph to a
    subgraph means for the roof.
    """
    if max_length < 0:
        raise GraphError(f"truncation length L must be nonnegative, got {max_length}")
    system.check_path(gamma_star)
    base = system.edges[gamma_star[0]].src
    if system.edges[gamma_star[-1]].dst != base:
        raise GraphError("gamma_star must be a loop")
    m_star = system.path_matrix(gamma_star)
    if any(x == 0 for row in m_star for x in row):
        raise GraphError("gamma_star must have an entrywise positive matrix")
    words = loop_words(system, base, max_length, tuple(gamma_star), allowed_edges)
    words = list(itertools.islice(words, max_letters + 1))
    if len(words) > max_letters:
        raise GraphError(
            f"induced alphabet exceeds the guard of {max_letters} letters; lower L"
        )
    # Consecutive words share prefixes in depth-first order: prefix[i] holds
    # the rows of m_star . w[:i] of the last word, so each word only acts
    # with the suffix it does not share with the word before it.
    prefix = [[list(r) for r in m_star]]
    prev = ()
    letters = []
    for w in words:
        i, shared = 0, min(len(prev), len(w))
        while i < shared and prev[i] == w[i]:
            i += 1
        del prefix[i + 1:]
        for e in w[i:]:
            prefix.append(system.act(e, [r[:] for r in prefix[-1]]))
        matrix = tuple(map(tuple, prefix[-1]))
        letters.append(Letter(system.path_labels(w), w, matrix))
        prev = w
    return letters


# Representatives per block of the tuple kernel: a block's (d, d, BLOCK)
# products stay in cache while the power iteration runs over them.
BLOCK = 8192


def _power_log_radius(stack, tol=1e-12, max_iter=500):
    """log Perron root of every lane of a ``(d, d, lanes)`` stack.

    The stack is entry-major: ``stack[i, j]`` holds entry (i, j) of every
    lane's matrix as one contiguous vector, so a step is d*d multiply-adds
    of whole vectors.  Every lane iterates until the ratio spread of the worst
    lane falls below ``tol`` relative to its largest ratio; a stack that
    does not get there within ``max_iter`` steps raises.
    """
    d, _, lanes = stack.shape
    v = np.full((d, lanes), 1.0 / d)
    for _ in range(max_iter):
        w = np.einsum("ijl,jl->il", stack, v)
        s = w.sum(axis=0)
        if (s <= 0).any():
            raise GraphError("matrix is not primitive on the positive cone")
        w /= s
        r = w / np.maximum(v, 1e-300)
        rmax = r.max(axis=0)
        spread = (rmax - r.min(axis=0)) / rmax
        v = w
        if spread.max() < tol:
            break
    else:
        raise GraphError(
            f"power iteration did not converge in {max_iter} steps; "
            f"worst ratio spread {spread.max():.3g}"
        )
    lam = np.einsum("ijl,jl->l", stack, v) / v.sum(axis=0)
    return np.log(lam)


def perron_value(matrix, tol=1e-12, max_iter=500):
    """log of the spectral radius of a nonnegative primitive matrix."""
    a = np.array(matrix, dtype=np.float64)
    scale = a.max()
    if scale <= 0:
        raise GraphError("matrix must be nonnegative and nonzero")
    lam = _power_log_radius((a / scale)[:, :, None], tol, max_iter)
    return float(lam[0]) + math.log(scale)


def _rotation_classes(k, n):
    """Smallest code among the rotations of every n-tuple code over k
    letters (first letter most significant), and the representatives:
    the codes that are their own smallest rotation."""
    codes = np.arange(k**n, dtype=np.int64)
    canon = codes.copy()
    top = k ** (n - 1)
    rot = codes
    for _ in range(n - 1):
        rot = (rot % top) * k + rot // top
        np.minimum(canon, rot, out=canon)
    is_rep = canon == codes
    return canon, is_rep


def tuple_log_radii(letters, n):
    """log spectral radius of every n-fold product of letter matrices.

    The radius is invariant under rotating the tuple, so one product is
    formed per rotation class, over blocks of ``BLOCK`` representatives,
    and gathered back into tuple order (first letter most significant).
    """
    if not letters:
        raise GraphError("empty induced alphabet")
    if n < 1:
        raise GraphError(f"tuple length n must be at least 1, got {n}")
    k = len(letters)
    d = len(letters[0].matrix)
    if k**n * d * d > MEMORY_GUARD_FLOATS:
        raise GraphError(
            f"{k}^{n} tuple products exceed the memory guard; lower L or n"
        )
    mats = np.array([l.matrix for l in letters], dtype=np.float64)
    scales = mats.max(axis=(1, 2))
    base = np.ascontiguousarray((mats / scales[:, None, None]).transpose(1, 2, 0))
    base_log = np.log(scales)
    canon, is_rep = _rotation_classes(k, n)
    reps = np.flatnonzero(is_rep)
    out = np.empty(reps.size)
    for lo in range(0, reps.size, BLOCK):
        codes = reps[lo:lo + BLOCK]
        digits = [codes // k ** (n - 1 - t) % k for t in range(n)]
        prod = base.take(digits[0], axis=2)
        log = base_log[digits[0]]
        for a in digits[1:]:
            prod = np.einsum("ijl,jkl->ikl", prod, base.take(a, axis=2))
            scale = prod.max(axis=(0, 1))
            prod /= scale
            log = log + base_log[a] + np.log(scale)
        out[lo:lo + BLOCK] = _power_log_radius(prod) + log
    return out[(np.cumsum(is_rep) - 1)[canon]]


def _pressure(log_radii, n):
    """The truncated pressure P(kappa) = (1/n) log sum exp(-kappa l) over the
    log radii l, as a function of kappa that returns P and dP/dkappa.

    It sums over the radii shifted by their minimum, in one reused buffer.
    The weighted sum is elementwise: numpy's ``dot`` and ``@`` call BLAS,
    whose threads spin after each call and bill CPU time.
    """
    low = float(log_radii.min())
    shifted = log_radii - low
    e = np.empty_like(shifted)

    def pressure(kappa):
        np.multiply(shifted, -kappa, out=e)
        np.exp(e, out=e)
        total = float(e.sum())
        mean = float(np.einsum("i,i->", shifted, e)) / total
        return (math.log(total) - kappa * low) / n, -(low + mean) / n

    return pressure


def partition_sum(letters, n, kappa, log_radii=None):
    """(1/n) log Z_n at inverse dimension parameter kappa."""
    if log_radii is None:
        log_radii = tuple_log_radii(letters, n)
    return _pressure(log_radii, n)(kappa)[0]


# Newton steps before the solve gives up; from the left end of the default
# bracket it converges in about five.
NEWTON_STEPS = 100


def solve_kappa(letters, n, bracket=(0.25, 16.0), tol=1e-9, log_radii=None):
    """Root of the truncated pressure in kappa, by Newton's method.

    Every log radius is at least log d > 0, so the pressure is convex and
    strictly decreasing in kappa, and Newton steps from the left end of the
    bracket, where it is nonnegative, rise monotonically to the root.  The
    bracket endpoints are widened hints, not certificates: a root outside
    the bracket raises, and so does a solve that does not reach ``tol``.
    """
    if log_radii is None:
        log_radii = tuple_log_radii(letters, n)
    lo, hi = bracket
    pressure = _pressure(log_radii, n)

    def no_sign_change(p_lo):
        return GraphError(
            f"no pressure sign change over bracket {bracket}: "
            f"P({lo})={p_lo:.4g}, P({hi})={pressure(hi)[0]:.4g}"
        )

    kappa = float(lo)
    p_lo, slope = pressure(kappa)
    if p_lo < 0:
        raise no_sign_change(p_lo)
    p = p_lo
    for _ in range(NEWTON_STEPS):
        if abs(p) < tol:
            return kappa, p
        kappa -= p / slope
        if kappa > hi:
            raise no_sign_change(p_lo)
        p, slope = pressure(kappa)
    raise GraphError(
        f"kappa solve did not converge in {NEWTON_STEPS} Newton steps; "
        f"last |P|={abs(p):.3g}"
    )


def pressure_analysis(system, max_length, n, base=None, gamma_star=None,
                      allowed_edges=None, bracket=(0.25, 16.0)):
    """End-to-end truncated pressure calibration.

    Finds a positive loop when none is given, builds the truncated induced
    alphabet, and solves for the zero of the truncated pressure.
    """
    if gamma_star is None:
        gamma_star = find_positive_path(
            system, start=base, allowed_edges=allowed_edges
        )
        if gamma_star is None:
            raise GraphError("no positive loop found")
    base = system.edges[gamma_star[0]].src
    letters = build_induced_alphabet(
        system, gamma_star, max_length, allowed_edges
    )
    log_radii = tuple_log_radii(letters, n)
    kappa, residual = solve_kappa(letters, n, bracket, log_radii=log_radii)
    return PressureEstimate(
        kappa=kappa,
        n=n,
        L=max_length,
        letters=len(letters),
        base_vertex=base,
        gamma_star=system.path_labels(gamma_star),
        residual=residual,
        bracket=tuple(bracket),
        restricted=allowed_edges is not None,
    )


def hausdorff_bound(kappa, alphabet_size):
    """Dimension bound of a surviving set from its pressure parameter."""
    return alphabet_size - 2 + kappa / alphabet_size


def asymptotic_gasket_bound(d):
    """Large-d upper bound for the d-dimensional gasket family."""
    return d - 1 + math.log(d) / (math.log(2) * (d + 1))
