"""Pressure estimation over accelerated loop systems and dimension bounds.

Acceleration on a positive loop turns the induction into a full shift over a
countable alphabet of return words.  Truncating that alphabet at a word
length L and summing spectral radii of n-fold products gives finite
approximations of the Gurevic-Sarig partition sums; the parameter kappa at
which the truncated pressure vanishes calibrates Hausdorff dimension bounds
for the surviving sets of subgraphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import GraphError, find_positive_path

MEMORY_GUARD_FLOATS = 2 * 10**8


@dataclass
class Letter:
    word_edges: tuple  # edges of the return word w (possibly empty)
    matrix: tuple  # exact integer matrix of gamma_star . w


@dataclass
class PressureEstimate:
    kappa: float
    letters: int
    products: int  # class products formed, one per rotation class of n-tuples
    base_vertex: str
    gamma_star: tuple  # label sequence
    residual: float
    bracket: tuple


def _loop_table(system, base, max_length, gamma_star, allowed_edges, cap):
    """The states of the loop walk, the sets that prune it and its size.

    A state is a vertex and the length of the longest suffix of the path
    that is a proper prefix of gamma_star.  ``steps[state]`` lists the edges
    that leave the state without completing gamma_star, in reverse edge
    order, as ``(edge, next state, whether it ends at base)``.  ``live[r]``
    holds the states that can end a loop at ``base`` in 1 to r more edges;
    the list stops where it stops changing.  ``count`` is the number of
    nonempty loops at ``base`` of length <= max_length, capped at ``cap``:
    capped counts stay small and reach a fixed point, where the table
    stops growing however large max_length is.
    """
    if max_length < 0:
        raise GraphError(f"truncation length L must be nonnegative, got {max_length}")
    avoid = tuple(gamma_star)
    allowed = range(len(system.edges)) if allowed_edges is None else set(allowed_edges)
    steps = {}
    for v, out in system.table.items():
        out = [(i, dst) for i, _, dst, _ in reversed(out) if i in allowed]
        for k in range(len(avoid)):
            steps[v, k] = nxt = []
            for i, dst in out:
                seen = avoid[:k] + (i,)
                kk = next(j for j in range(k + 1, -1, -1)
                          if seen[k + 1 - j:] == avoid[:j])
                if kk < len(avoid):  # else the edge completes gamma_star
                    nxt.append((i, (dst, kk), dst == base))
    counts = dict.fromkeys(steps, 0)  # ways to end a loop in 1 to r edges
    live = [frozenset()]
    for _ in range(max_length):
        new = {s: min(cap, sum(end + counts[t] for _, t, end in nxt))
               for s, nxt in steps.items()}
        if new == counts:
            break
        counts = new
        alive = frozenset(s for s, c in counts.items() if c)
        if alive != live[-1]:  # once equal, equal for every larger r
            live.append(alive)
    return steps, live, counts[base, 0]


def build_induced_alphabet(system, gamma_star, max_length, allowed_edges=None,
                           max_letters=200000):
    """Return-word letters of the acceleration on the cylinder of gamma_star.

    The letters are the loops at the base of length <= max_length without
    the factor gamma_star, depth first from the empty loop; the walk pushes
    only prefixes that can still end one, each acting once on its parent's rows.

    Matrices always come from ``system`` even when the loops are confined to
    ``allowed_edges``; that is what restricting a larger ambient graph to a
    subgraph means for the roof.  The letter count is known from the count
    table before any letter is formed, so the guard costs no walk.
    """
    if not gamma_star:
        raise GraphError("gamma_star must be a nonempty loop")
    system.check_path(gamma_star)
    base = system.edges[gamma_star[0]].src
    if system.edges[gamma_star[-1]].dst != base:
        raise GraphError("gamma_star must be a loop")
    m_star = system.path_matrix(gamma_star)
    if any(x == 0 for row in m_star for x in row):
        raise GraphError("gamma_star must have an entrywise positive matrix")
    steps, live, count = _loop_table(system, base, max_length, gamma_star,
                                     allowed_edges, cap=max(max_letters, 1))
    if 1 + count > max_letters:
        raise GraphError(
            f"induced alphabet exceeds the guard of {max_letters} letters; lower L"
        )
    letters = [Letter((), m_star)]
    top = len(live) - 1  # live[top] holds for every r >= top
    stack = [((base, 0), (), m_star)] if (base, 0) in live[top] else []
    while stack:
        state, path, rows = stack.pop()
        can_end = live[min(max_length - 1 - len(path), top)]
        for i, nxt, end in steps[state]:
            go = nxt in can_end
            if end or go:
                p = path + (i,)
                r = system.act(i, [list(x) for x in rows])
                if end:
                    letters.append(Letter(p, tuple(map(tuple, r))))
                if go:
                    stack.append((nxt, p, r))
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
    does not get there within ``max_iter`` steps raises.  The root is the
    last step's growth ``s``: with ``v`` summing to 1, ``s`` is a weighted
    mean of the step's ratios, so it lies in their Collatz-Wielandt bracket.
    """
    d, _, lanes = stack.shape
    v = np.full((d, lanes), 1.0 / d)
    r = np.empty_like(v)
    for _ in range(max_iter):
        w = np.einsum("ijl,jl->il", stack, v)
        s = w.sum(axis=0)
        if (s <= 0).any():
            raise GraphError("matrix is not primitive on the positive cone")
        w /= s
        np.maximum(v, 1e-300, out=r)
        np.divide(w, r, out=r)
        rmax = r.max(axis=0)
        spread = (rmax - r.min(axis=0)) / rmax
        v = w
        if spread.max() < tol:
            return np.log(s)
    raise GraphError(
        f"power iteration did not converge in {max_iter} steps; "
        f"worst ratio spread {spread.max():.3g}"
    )


def _rotation_classes(k, n):
    """The smallest code of every rotation class of n-tuples over k letters
    (first letter most significant), in increasing order, and the class
    sizes, the tuples' smallest periods.  Codes are screened ``BLOCK * n``
    at a time; the guard keeps k^n below 2^31, so they fit int32."""
    def rotate(codes, s):  # the last s digits move to the front
        return codes % k**s * k**(n - s) + codes // k**s
    total, reps = k**n, []
    for lo in range(0, total, BLOCK * n):
        codes = np.arange(lo, min(lo + BLOCK * n, total), dtype=np.int32)
        for s in range(1, n):
            codes = codes[codes <= rotate(codes, s)]
        reps.append(codes)
    reps = np.concatenate(reps)
    fixed = (rotate(reps, s) == reps for s in range(1, n))  # period p: n/p - 1 of them
    return reps, n // sum(fixed, np.ones(reps.size, np.min_scalar_type(n)))


def tuple_log_radii(letters, n):
    """log spectral radius of the n-fold products of letter matrices, one
    record ``("log_radius", "size")`` per rotation class of n-tuples.

    The radius is invariant under rotating the tuple, so one product is
    formed per class, for its smallest tuple (first letter most
    significant), over blocks of ``BLOCK`` representatives.  The records
    follow that tuple's order, and a size is the number of tuples in its
    class, so the sizes sum to k^n; nothing has k^n entries.  One letter
    takes one product at any n."""
    if not letters:
        raise GraphError("empty induced alphabet")
    if n < 1:
        raise GraphError(f"tuple length n must be at least 1, got {n}")
    k = len(letters)
    if k == 1 and n > 1:
        # one class, of size 1, and rho(M^n) = rho(M)^n: no n-fold product
        records = tuple_log_radii(letters, 1)
        records["log_radius"] *= n
        return records
    d = len(letters[0].matrix)
    # far beyond the guard, the log decides: a large n forms no big k**n
    if (n * math.log2(k) > math.log2(MEMORY_GUARD_FLOATS) + 1
            or k**n * d * d > MEMORY_GUARD_FLOATS):
        raise GraphError(
            f"{k}^{n} tuple products exceed the memory guard; lower L or n"
        )
    mats = np.array([l.matrix for l in letters], dtype=np.float64)
    scales = mats.max(axis=(1, 2))
    base = np.ascontiguousarray((mats / scales[:, None, None]).transpose(1, 2, 0))
    base_log = np.log(scales)
    reps, sizes = _rotation_classes(k, n)
    records = np.empty(reps.size, [("log_radius", "f8"), ("size", sizes.dtype)])
    records["size"] = sizes
    for lo in range(0, reps.size, BLOCK):
        first, *rest = (reps[lo:lo + BLOCK] // k**i % k for i in reversed(range(n)))
        prod = base.take(first, axis=2)
        log = base_log[first]
        for a in rest:
            prod = np.einsum("ijl,jkl->ikl", prod, base.take(a, axis=2))
            scale = prod.max(axis=(0, 1))
            prod /= scale
            log = log + base_log[a] + np.log(scale)
        records["log_radius"][lo:lo + BLOCK] = _power_log_radius(prod) + log
    return records


def _pressure(records, n):
    """The truncated pressure P(kappa) = (1/n) log sum |c| exp(-kappa l_c)
    over the class records c of ``tuple_log_radii``, of size |c| and log
    radius l_c, as a function of kappa that returns P and dP/dkappa.

    It sums over the radii shifted by their minimum, in one reused buffer.
    The weighted sum is elementwise: numpy's ``dot`` and ``@`` call BLAS,
    whose threads spin after each call and bill CPU time.
    """
    log_radii = records["log_radius"]
    low = float(log_radii.min())
    e = np.empty(records.size)

    def pressure(kappa):
        np.subtract(log_radii, low, out=e)
        np.multiply(e, -kappa, out=e)
        np.exp(e, out=e)
        np.multiply(e, records["size"], out=e)
        total = float(e.sum())
        mean = float(np.einsum("i,i->", log_radii, e)) / total
        return (math.log(total) - kappa * low) / n, -mean / n

    return pressure


# Newton steps before the solve gives up, and the bracket that
# ``pressure_analysis`` solves over; from its left end the solve converges in
# about five steps.
NEWTON_STEPS = 100
KAPPA_BRACKET = (0.25, 16.0)


def solve_kappa(records, n, bracket=KAPPA_BRACKET, tol=1e-9):
    """Root in kappa of the truncated pressure of the n-tuple class records
    ``records`` (from ``tuple_log_radii``), each weighted by its class
    size, by Newton's method.

    Every log radius is at least log d > 0, so the pressure is convex and
    strictly decreasing in kappa, and Newton steps from the left end of the
    bracket, where it is nonnegative, rise monotonically to the root.  The
    bracket endpoints are widened hints, not certificates: a root outside
    the bracket raises, and so does a solve that does not reach ``tol``.
    """
    lo, hi = bracket
    pressure = _pressure(records, n)

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


def pressure_analysis(system, max_length, n, gamma_star=None, allowed_edges=None):
    """End-to-end truncated pressure calibration.

    Finds a positive loop when none is given, builds the truncated induced
    alphabet, and solves for the zero of the truncated pressure over
    ``KAPPA_BRACKET``.
    """
    allowed_edges = None if allowed_edges is None else set(allowed_edges)
    if gamma_star is None:
        gamma_star = find_positive_path(system, allowed_edges=allowed_edges)
        if gamma_star is None:
            raise GraphError("no positive loop found")
    letters = build_induced_alphabet(
        system, gamma_star, max_length, allowed_edges
    )
    base = system.edges[gamma_star[0]].src
    records = tuple_log_radii(letters, n)
    kappa, residual = solve_kappa(records, n)
    return PressureEstimate(
        kappa=kappa,
        letters=len(letters),
        products=records.size,
        base_vertex=base,
        gamma_star=system.path_labels(gamma_star),
        residual=residual,
        bracket=KAPPA_BRACKET,
    )


def hausdorff_bound(kappa, alphabet_size):
    """Dimension bound of a surviving set from its pressure parameter."""
    if alphabet_size < 1:
        raise GraphError(f"alphabet size must be positive, got {alphabet_size}")
    return alphabet_size - 2 + kappa / alphabet_size


def asymptotic_gasket_bound(d):
    """Large-d upper bound for the d-dimensional gasket family."""
    return d - 1 + math.log(d) / (math.log(2) * (d + 1))
