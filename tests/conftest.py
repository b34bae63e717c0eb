"""Shared test fixtures."""

import gc
import math

import pytest


def collections_during(fn, *args, **kwargs):
    """fn's result and the generation of each collection that started while
    it ran.  A full collection first empties the counters, so the few
    allocations before a pause cannot cross the first threshold."""
    seen = []

    def record(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        result = fn(*args, **kwargs)
        during = len(seen)  # an int: the read allocates nothing the collector tracks
    finally:
        gc.callbacks.remove(record)
    return result, seen[:during]


@pytest.fixture(name="collections_during")
def collections_during_fixture():
    return collections_during


def chi2_sf(x, dof):
    """P(chi^2_dof > x): the regularized upper incomplete gamma Q(dof/2, x/2),
    by its series below a + 1 and its continued fraction above (Press et al.,
    Numerical Recipes, section 6.2)."""
    a, x = dof / 2, x / 2
    if x <= 0:
        return 1.0
    scale = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1:  # series for P(a, x); Q is not small here
        term = total = 1 / a
        for n in range(1, 10_000):
            term *= x / (a + n)
            total += term
            if abs(term) < abs(total) * 1e-16:
                return 1 - total * scale
    else:  # modified Lentz evaluation of the continued fraction for Q(a, x)
        tiny = 1e-300
        b = x + 1 - a
        c, d = 1 / tiny, 1 / b
        h = d
        for i in range(1, 10_000):
            an = -i * (i - a)
            b += 2
            d = an * d + b
            d = 1 / (d if abs(d) > tiny else tiny)
            c = b + an / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
            if abs(d * c - 1) < 1e-16:
                return h * scale
    raise ArithmeticError("chi2_sf did not converge")


@pytest.fixture(name="chi2_sf")
def chi2_sf_fixture():
    return chi2_sf
