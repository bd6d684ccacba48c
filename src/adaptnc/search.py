"""Small search utilities on the real line: golden-section maximization of a
unimodal function and bisection of a sign change."""

_INV_GOLDEN2 = 0.3819660112501051  # 2 - golden ratio


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
