"""Coefficient streams replayed through one tee (series._replay).

A replayed stream must give the same bits as a freshly generated one,
whatever order the evaluations come in and in whichever thread they run,
and a stream that raised part-way must never be replayed as if it ended.
"""

import sys
import threading

import pytest

from hyperd import (
    F0,
    F1,
    F2,
    bessel,
    d_eval,
    f_norm,
    log_solution,
    u0,
    u1,
    u2,
)
from hyperd import dfun, ffun
from hyperd.errors import HyperdError


# the 2-jets of the prepared callables, one fresh prepare per call
def f_norm_2jet(p, z):
    return ffun.prepare_f_norm(p).jet(z, 2)


def d_eval_2jet(p, z):
    return dfun.prepare_d_eval(p).jet(z, 2)


def log_solution_2jet(p, z):
    return dfun.prepare_log_solution(p).jet(z, 2)

ZS = (0.3 + 0.2j, complex(0.6, 0.0), complex(0.6, -0.0), -0.45 + 0.1j,
      3.0 - 1.5j)

# each pair written with complex(x, -0.0) differs from its neighbour only
# in the sign of a zero imaginary part, and compares equal to it
F_PARAMS = (
    F0(2), F0(-2), F0(-0.5), F0(complex(-0.5, -0.0)), F0(0.3 + 0.1j),
    F1(0.7, 2), F1(0.7, -1), F1(0.7, 0.4), F1(complex(0.7, -0.0), 0.4),
    F2(1, 0.3, 0.2), F2(0.4, 0.3, 0.2), F2(0.4, complex(0.3, -0.0), 0.2),
    F2(-2, 0.3, 0.25),
)
D_PARAMS = (
    F0(-2), F0(0), F0(3),
    F1(0.7, 2), F1(0.7, 1), F1(complex(0.7, -0.0), 1), F1(0.7, -1),
    F2(1, 0.3, 0.2), F2(1, complex(0.3, -0.0), 0.2), F2(2, 0.3, -0.45),
)
ROUTES = (None, "Connection", "LogPlusD", "Asymptotic2F0")
ALPHAS = (2, -1, 0.4, 2 + 1e-11)

CORPUS = (
    [(f, (p, z)) for p in F_PARAMS for z in ZS for f in (f_norm, f_norm_2jet)]
    + [(f, (s, z)) for s in D_PARAMS for z in ZS
       for f in (d_eval, d_eval_2jet, log_solution, log_solution_2jet)]
    + [(u0, (a, z, r)) for a in ALPHAS for z in ZS for r in ROUTES]
    + [(u1, (0.7, a, z, r)) for a in ALPHAS for z in ZS for r in ROUTES]
    + [(u2, (a, 0.3, 0.2, z, r)) for a in ALPHAS for z in ZS + (-3 + 0.5j,)
       for r in ROUTES]
    + [(bessel, (k, m, z)) for k in ("I", "J", "K", "H1", "H2")
       for m in (0, 2, -1) for z in (1.2 + 0.3j, complex(0.8, -0.0))]
)


def _run(calls):
    out = []
    for fn, args in calls:
        try:
            out.append(repr(fn(*args)))
        except (HyperdError, ValueError) as exc:
            out.append("%s: %s" % (type(exc).__name__, exc))
    return out


def test_replay_is_independent_of_order():
    forward = _run(CORPUS)
    backward = _run(CORPUS[::-1])[::-1]
    assert forward == backward
    assert sum(r.startswith("EvalResult") or r.startswith("(")
               for r in forward) > len(CORPUS) // 2


def test_threads_match_sequential_run():
    expected = _run(CORPUS)
    results = [None] * 4

    def work(i):
        # odd threads run the corpus backwards
        calls = CORPUS[::-1] if i % 2 else CORPUS
        outs = [_run(calls) for _ in range(3)]
        results[i] = [out[::-1] if i % 2 else out for out in outs]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [[expected] * 3] * 4


P, PD, Z = F1(0.7, 0.4), F1(0.7, -2), 0.5 + 0.2j
CALLS = {
    "f_norm": lambda: f_norm(P, Z),
    "f_norm_jet": lambda: f_norm_2jet(P, Z),
    "d_eval": lambda: d_eval(PD, Z),
    "d_eval_jet": lambda: d_eval_2jet(PD, Z),
}


def _fail_streams(monkeypatch, persistent):
    """Make the next stream built, or every one if persistent, raise at its
    6th value."""
    doom = [True]

    def failing(make):
        def patched(*args):
            doomed = doom[0]
            doom[0] = persistent
            for i, c in enumerate(make(*args)):
                if doomed and i == 5:
                    raise ZeroDivisionError("injected")
                yield c
        return patched

    monkeypatch.setattr(ffun, "_TERMS", tuple(map(failing, ffun._TERMS)))
    monkeypatch.setattr(dfun, "_tail", failing(dfun._tail))


@pytest.mark.parametrize("persistent", [False, True])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_stream_that_raised_is_built_again(monkeypatch, name, persistent):
    call = CALLS[name]
    want = repr(call())
    _fail_streams(monkeypatch, persistent)
    with pytest.raises(ZeroDivisionError):
        call()
    # never the sum of the first five coefficients as if the stream ended
    for _ in range(2):
        if persistent:
            with pytest.raises(ZeroDivisionError):
                call()
        else:
            assert repr(call()) == want


@pytest.mark.parametrize("prepare,arg", [(ffun.prepare_f_norm, P),
                                         (dfun.prepare_d_eval, PD)])
def test_prepared_callable_builds_a_raised_stream_again(monkeypatch, prepare,
                                                        arg):
    # a prepared callable keeps its stream from point to point, but not
    # one that raised: the next point builds it anew, for the value as for
    # the jet
    fresh = prepare(arg)
    want, want_jet = repr(fresh(Z)), repr(fresh.jet(Z, 2))
    _fail_streams(monkeypatch, persistent=False)
    at = prepare(arg)
    with pytest.raises(ZeroDivisionError):
        at(Z)
    assert repr(at.jet(Z, 2)) == want_jet
    assert repr(at(Z)) == want
    _fail_streams(monkeypatch, persistent=False)
    at = prepare(arg)
    with pytest.raises(ZeroDivisionError):
        at.jet(Z, 2)
    assert repr(at.jet(Z, 2)) == want_jet
    assert repr(at(Z)) == want
