"""Small search utilities: unimodal argmax and bisection.

The reward curves maximized here are log-concave in the block size, so the
ratio of consecutive values is non-increasing and golden-ratio probing with
ties resolved leftward finds the smallest maximizer.
"""

_INV_GOLDEN2 = 0.3819660112501051  # 2 - golden ratio


def argmax_unimodal(f, lo: int, hi: int) -> int:
    """Smallest maximizer of a unimodal ``f`` over the integers [lo, hi].

    Golden-ratio section until the bracket is short, then a linear scan.
    On probe ties the right part is discarded, which keeps the smallest
    maximizer for curves whose value ratio f(x+1)/f(x) never increases.
    """
    if lo > hi:
        raise ValueError(f"empty search range [{lo}, {hi}]")
    while hi - lo >= 8:
        span = hi - lo
        m1 = lo + int(span * _INV_GOLDEN2)
        m2 = hi - int(span * _INV_GOLDEN2)
        if m1 >= m2:
            m2 = m1 + 1
        if f(m1) >= f(m2):
            hi = m2 - 1
        else:
            lo = m1 + 1
    best, fbest = lo, f(lo)
    for x in range(lo + 1, hi + 1):
        fx = f(x)
        if fx > fbest:
            best, fbest = x, fx
    return best


def golden_max(f, lo: float, hi: float) -> float:
    """Abscissa of the maximum of a unimodal ``f`` on [lo, hi], to 1e-12."""
    a, b = float(lo), float(hi)
    x1 = a + _INV_GOLDEN2 * (b - a)
    x2 = b - _INV_GOLDEN2 * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > 1e-12:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = b - _INV_GOLDEN2 * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = a + _INV_GOLDEN2 * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def bisect_root(f, lo: float, hi: float) -> float:
    """Root of ``f`` on [lo, hi] by bisection to 1e-10; needs a sign change."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)
