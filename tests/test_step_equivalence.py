"""The one coefficient step of the F series against the steps it replaced.

ffun._terms takes one step for every arity: it multiplies by each
(u + n), u an upper parameter, in turn and then divides by (c + n)(n + 1).
_REFERENCE below keeps the three per-arity generators it replaced,
verbatim.  Every stream _seed builds, of p and of the images of Kummer's
and Pfaff's maps, must be the same repr for repr: integer orders from -8
to 11, generic, complex and signed-zero fields, and upper parameters at
which the series terminates.
"""

import itertools

from hyperd import ffun
from hyperd.ffun import F0, F1, F2


def _f0_terms(c0, n0, c):
    coef = complex(c0)
    n = n0
    while True:
        yield coef
        coef = coef / ((c + n) * (n + 1))
        n += 1


def _f1_terms(c0, n0, c, a):
    coef, a = complex(c0), complex(a)
    n = n0
    while True:
        yield coef
        coef = coef * (a + n) / ((c + n) * (n + 1))
        n += 1


def _f2_terms(c0, n0, c, a, b):
    coef, a, b = complex(c0), complex(a), complex(b)
    n = n0
    while True:
        yield coef
        coef = coef * (a + n) * (b + n) / ((c + n) * (n + 1))
        n += 1


_REFERENCE = (_f0_terms, _f1_terms, _f2_terms)


def _reference_terms(c0, n0, c, *upper):
    return _REFERENCE[len(upper)](c0, n0, c, *upper)


# coefficients compared per stream
N = 300

ALPHAS = (list(range(-8, 12))
          + [0.37, -2.6, 4.5, 2.0 + 5e-10, -0.0, complex(0.3, 0.2), complex(2.0, -0.0),
             complex(-3.0, 0.0), complex(-0.0, 0.0), complex(1.5, -2.5)])
# theta = -5 and beta = 2, mu = -3 make an upper parameter a non-positive
# integer at some orders, where the series terminates
THETAS = [0.7, -0.0, complex(0.3, -1.1), -5.0, 12.25, complex(-0.0, 0.0)]
F2_FIELDS = [(0.3, 0.2), (-0.0, 0.0), (complex(0.1, 0.4), -0.25), (2.0, -3.0),
             (-0.45, complex(0.0, -0.0)), (1.3, 0.9)]


def _cases():
    # the parameter images of Kummer's and Pfaff's maps
    kummer, pfaff = ffun._MAPS["1f1"][1], ffun._MAPS["2f1"][1]
    for alpha in ALPHAS:
        yield F0(alpha), None
        for theta in THETAS:
            yield F1(theta, alpha), None
            yield F1(theta, alpha), kummer
        for beta, mu in F2_FIELDS:
            yield F2(alpha, beta, mu), None
            yield F2(alpha, beta, mu), pfaff


def _stream(p, image):
    # _seed takes a set that passed the door, which snaps alpha to m
    try:
        n0, gen = ffun._seed(ffun._params(p), image)
    except Exception as exc:
        return repr(exc)
    return n0, [repr(c) for c in itertools.islice(gen(), N)]


def test_the_one_step_gives_the_streams_of_the_per_arity_steps(monkeypatch):
    cases = list(_cases())
    got = [_stream(p, image) for p, image in cases]
    monkeypatch.setattr(ffun, "_terms", _reference_terms)
    want = [_stream(p, image) for p, image in cases]
    assert len(cases) == 750
    for case, g, w in zip(cases, got, want):
        assert g == w, case
    # the corpus reaches every arity, m < 0 and a terminating series
    assert any(isinstance(g, tuple) and g[0] > 0 for g in got)
    assert any(isinstance(g, tuple) and g[1][-1] == "0j" for g in got)
