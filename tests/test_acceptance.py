"""Acceptance suite: one test per shipping criterion, strict tolerances.

Each criterion is a single test function so the -v report carries one
pass/fail line per criterion.  Detail lines are printed for -s runs and
failure diagnostics.  Tolerances here are contractual; they must not be
loosened to make a build pass.
"""

import argparse
import dataclasses
import io
import math
from fractions import Fraction
from types import SimpleNamespace

from hyperd import cli
from hyperd.dfun import d_eval, d_expand, prepare_log_solution
from hyperd.ffun import F0, F1, F2, f_norm, prepare_f_norm, prepare_f_second
from hyperd.gammakit import gamma, pochhammer, recip_gamma, sinpi
from hyperd.oracle import inhom_residual, limit_alpha, ode_residual
from hyperd.relations import build_catalog, sweep_catalog
from hyperd.series import EvalResult, log_negated, principal_log, principal_pow
from hyperd.ufun import URoute, bessel, u0, u1, u2


def _ring(radii, phases):
    return [complex(r * math.cos(p), r * math.sin(p))
            for r in radii for p in phases]


# standard grids: 10 points each, clear of the respective branch cuts
GRID_01 = _ring((0.5, 1.2), (-2.6, -1.7, -0.8, 0.4, 1.3))
GRID_2 = _ring((0.35, 0.7), (0.5, 1.6, 2.7, -2.4, -1.3))

THETAS = (0.3, 0.7, 1.9)
BETA_MU = ((0.3, 0.2), (0.45, 0.1))


# ---------------------------------------------------------------------------
# criterion 1: the three degenerate-limit theorems

def test_criterion_1_degenerate_theorem_suite():
    worst_direct = 0.0
    worst_limit = 0.0
    for m in range(5):
        pref = (-1.0) ** (m + 1) / math.sqrt(math.pi)
        for z in GRID_01:
            a = u0(m, z, URoute.LOG_PLUS_D).value
            b = pref * (principal_log(z) * f_norm(F0(float(m)), z).value
                        + d_eval(F0(m), z).value)
            c = limit_alpha(F0(m), z).value
            worst_direct = max(worst_direct, abs(a - b))
            worst_limit = max(worst_limit, abs(a - c))
        for th in THETAS:
            pref = (-1.0) ** (m + 1) * recip_gamma((1 - m + th) / 2)
            for z in GRID_01:
                a = u1(th, m, z, URoute.LOG_PLUS_D).value
                b = pref * (principal_log(z)
                            * f_norm(F1(th, float(m)), z).value
                            + d_eval(F1(th, m), z).value)
                c = limit_alpha(F1(th, m), z).value
                worst_direct = max(worst_direct, abs(a - b))
                worst_limit = max(worst_limit, abs(a - c))
        for be, mu in BETA_MU:
            pref = (-1.0) ** (m + 1) \
                * recip_gamma((1 - m - be - mu) / 2) \
                * recip_gamma((1 - m + be - mu) / 2)
            for z in GRID_2:
                a = u2(m, be, mu, z, URoute.LOG_PLUS_D).value
                b = pref * (log_negated(z)
                            * f_norm(F2(float(m), be, mu), z).value
                            + d_eval(F2(m, be, mu), z).value)
                c = limit_alpha(F2(m, be, mu), z).value
                worst_direct = max(worst_direct, abs(a - b))
                worst_limit = max(worst_limit, abs(a - c))
    print("criterion 1: worst |U - logform| = %.3e (tol 1e-9), "
          "worst |U - limit| = %.3e (tol 1e-6)" % (worst_direct, worst_limit))
    assert worst_direct <= 1e-9
    assert worst_limit <= 1e-6


# ---------------------------------------------------------------------------
# criterion 2: defining equations

def _values(at, z):
    return [r.value for r in at.jet(z, 2)]


def _jet_of(fn):
    """A 2-jet for ode_residual from fn(z) -> (w, w', w'')."""
    return SimpleNamespace(
        jet=lambda z, order: tuple(EvalResult(v, 0.0, 0) for v in fn(z)))


def _scaled(at, c):
    """c times the prepared evaluator at, as ode_residual reads it."""
    return SimpleNamespace(
        jet=lambda z, order: [r.scaled(c) for r in at.jet(z, order)])


def _u0_generic_jet(alpha):
    f, g = prepare_f_norm(F0(alpha)), prepare_f_second(F0(alpha))

    def jet(z):
        c = math.sqrt(math.pi) / sinpi(alpha)
        return tuple(c * (gv - fv)
                     for gv, fv in zip(_values(g, z), _values(f, z)))
    return jet


def _u1_generic_jet(theta, alpha):
    f, g = prepare_f_norm(F1(theta, alpha)), prepare_f_second(F1(theta, alpha))

    def jet(z):
        c = math.pi / sinpi(alpha)
        wp = recip_gamma((1 + theta + alpha) / 2)
        wm = recip_gamma((1 + theta - alpha) / 2)
        return tuple(c * (gv * wp - fv * wm)
                     for gv, fv in zip(_values(g, z), _values(f, z)))
    return jet


def _u2_generic_jet(alpha, beta, mu):
    f = prepare_f_norm(F2(alpha, beta, mu))
    fr = prepare_f_norm(F2(-alpha, beta, -mu))

    def jet(z):
        import cmath
        c = -math.pi / sinpi(alpha)
        w1 = recip_gamma((1 - alpha - beta - mu) / 2) \
            * recip_gamma((1 - alpha + beta - mu) / 2)
        w2 = recip_gamma((1 + alpha + beta - mu) / 2) \
            * recip_gamma((1 + alpha - beta - mu) / 2)
        r = _values(fr, z)
        w = cmath.exp(-alpha * log_negated(z))
        g = (w * r[0],
             w * (r[1] - alpha * r[0] / z),
             w * (r[2] - 2 * alpha * r[1] / z
                  + alpha * (alpha + 1) * r[0] / z ** 2))
        return tuple(c * (fv * w1 - gv * w2)
                     for fv, gv in zip(_values(f, z), g))
    return jet


def test_criterion_2_defining_equations():
    worst_ode = 0.0
    cases = []

    # F and the second solution, generic and degenerate parameters
    for al in (0.4, -0.6, 0.0, 1.0, 2.0):
        p = F0(al)
        cases.append((prepare_f_norm(p), p, GRID_01))
        cases.append((prepare_f_second(p), p, GRID_01))
    for th in (0.7, 1.9):
        for al in (0.4, 0.0, 2.0):
            p = F1(th, al)
            cases.append((prepare_f_norm(p), p, GRID_01))
            cases.append((prepare_f_second(p), p, GRID_01))
    for al in (0.4, 0.0, 1.0):
        p = F2(al, 0.3, 0.2)
        cases.append((prepare_f_norm(p), p, GRID_2))
        cases.append((prepare_f_second(p), p, GRID_2))

    # log solutions
    for m in (0, 1, 2):
        cases.append((prepare_log_solution(F0(m)), F0(float(m)),
                      GRID_01))
        cases.append((prepare_log_solution(F1(0.7, m)),
                      F1(0.7, float(m)), GRID_01))
        cases.append((prepare_log_solution(F2(m, 0.3, 0.2)),
                      F2(float(m), 0.3, 0.2), GRID_2))

    # U: integer m through the log-solution jet, generic alpha through
    # the connection combination
    for m in (0, 1):
        c0 = (-1.0) ** (m + 1) / math.sqrt(math.pi)
        cases.append((_scaled(prepare_log_solution(F0(m)), c0),
                      F0(float(m)), GRID_01))
        c1 = (-1.0) ** (m + 1) * recip_gamma((1 - m + 0.7) / 2)
        s1 = F1(0.7, m)
        cases.append((_scaled(prepare_log_solution(s1), c1),
                      F1(0.7, float(m)), GRID_01))
        c2 = (-1.0) ** (m + 1) * recip_gamma((1 - m - 0.5) / 2) \
            * recip_gamma((1 - m + 0.1) / 2)
        s2 = F2(m, 0.3, 0.2)
        cases.append((_scaled(prepare_log_solution(s2), c2),
                      F2(float(m), 0.3, 0.2), GRID_2))
    cases.append((_jet_of(_u0_generic_jet(0.4)), F0(0.4), GRID_01))
    cases.append((_jet_of(_u1_generic_jet(0.7, 0.4)), F1(0.7, 0.4), GRID_01))
    cases.append((_jet_of(_u2_generic_jet(0.4, 0.3, 0.2)), F2(0.4, 0.3, 0.2),
                  GRID_2))

    for f, p, grid in cases:
        for z in grid:
            worst_ode = max(worst_ode, ode_residual(f, p, z).residual)
    assert worst_ode <= 1e-8

    worst_inhom = 0.0
    for m in (-2, 0, 1, 2, 3):
        for z in GRID_01:
            worst_inhom = max(worst_inhom,
                              inhom_residual(F0(m), z).residual)
    for m in (0, 1, 2, 3):
        for z in GRID_01:
            worst_inhom = max(
                worst_inhom,
                inhom_residual(F1(0.7, m), z).residual)
        for z in GRID_2:
            worst_inhom = max(
                worst_inhom,
                inhom_residual(F2(m, 0.3, 0.2), z).residual)
    print("criterion 2: worst ode residual %.3e, worst inhomogeneous "
          "residual %.3e (tol 1e-8)" % (worst_ode, worst_inhom))
    assert worst_inhom <= 1e-8


# ---------------------------------------------------------------------------
# criterion 3: full catalog sweep

def test_criterion_3_catalog_sweep():
    worst = sweep_catalog(n=25)
    key = max(worst, key=worst.get)
    print("criterion 3: %d relations, worst %s = %.3e (tol 1e-8)"
          % (len(worst), key, worst[key]))
    assert len(worst) == 61
    assert all(v <= 1e-8 for v in worst.values()), \
        {k: v for k, v in worst.items() if v > 1e-8}


# ---------------------------------------------------------------------------
# criterion 4: the closed-form gamma identity

def test_criterion_4_gamma_identity():
    worst = 0.0
    for m in range(11):
        lhs = (-1.0) ** m * gamma(1.0 + 2 * m) \
            / (math.sqrt(math.pi) * gamma(1.0 + m))
        rhs = 4.0 ** m * recip_gamma(0.5 - m)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    print("criterion 4: worst relative error %.3e (tol 1e-12)" % (worst,))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# criterion 5: coefficient recursions and exact principal parts

def test_criterion_5_coefficient_recursions():
    worst = 0.0

    for m in range(5):
        d = d_expand(F0(m)).tail_list(31)
        for n in range(30):
            rec = (d[n] - (m + 2 * n + 2)
                   / (math.factorial(m + n + 1) * math.factorial(n + 1))) \
                / ((n + 1) * (n + m + 1))
            worst = max(worst, abs(rec - d[n + 1]) / abs(d[n + 1]))

        for th in THETAS:
            a = (1 + m + th) / 2
            d = d_expand(F1(th, m)).tail_list(31)
            for k in range(30):
                pk = pochhammer(a, k)
                rec = ((k + a) * d[k]
                       + pk / (math.factorial(m + k + 1)
                               * math.factorial(k + 1))
                       * ((k + 1) * (m + k + 1) - (a + k) * (m + 2 * k + 2))
                       ) / ((k + 1) * (k + m + 1))
                worst = max(worst, abs(rec - d[k + 1]) / abs(d[k + 1]))

        be, mu = 0.3, 0.2
        a = (1 + m + be - mu) / 2
        b = (1 + m + be + mu) / 2
        d = d_expand(F2(m, be, mu)).tail_list(31)
        for k in range(30):
            pk = pochhammer(a, k) * pochhammer(b, k)
            rec = ((a + k) * (b + k) * d[k]
                   + pk / (math.factorial(k) * math.factorial(m + k))
                   * ((1 + be + m + 2 * k)
                      - (a + k) * (b + k) * (2 * k + m + 2)
                      / ((1 + m + k) * (k + 1)))
                   ) / ((k + 1) * (k + 1 + m))
            worst = max(worst, abs(rec - d[k + 1]) / abs(d[k + 1]))

    print("criterion 5: worst recursion relative error %.3e (tol 1e-12)"
          % (worst,))
    assert worst <= 1e-12

    # principal parts against exact rational closed forms, bit for bit
    exact = 0
    for m in range(5):
        got = d_expand(F0(m)).principal
        want = [Fraction((-1) ** (k - 1) * math.factorial(k - 1),
                         math.factorial(m - k)) for k in range(1, m + 1)]
        assert len(got) == m
        for g, w in zip(got, want):
            assert g == complex(float(w))
            exact += 1
    for m in (1, 2, 3, 4):
        th = m + 1  # integer a = m + 1, above the pole range
        a = Fraction(1 + m + th, 2)
        got = d_expand(F1(float(th), m)).principal
        dk = Fraction(1, math.factorial(m - 1)) / (a - 1)
        want = [dk]
        for k in range(2, m + 1):
            dk = dk * Fraction(-(k - 1) * (m + 1 - k)) / (a - k)
            want.append(dk)
        for g, w in zip(got, want):
            assert g == complex(float(w)), (m, g, float(w))
            exact += 1
    for m, be, mu in ((1, Fraction(3, 4), Fraction(-1, 4)),
                      (2, Fraction(1, 4), Fraction(1, 4)),
                      (4, Fraction(1, 4), Fraction(1, 4))):
        a = (1 + m + be - mu) / 2
        b = (1 + m + be + mu) / 2
        got = d_expand(F2(m, float(be), float(mu))).principal
        dk = Fraction(1, math.factorial(m - 1)) / ((a - 1) * (b - 1))
        want = [dk]
        for k in range(2, m + 1):
            dk = dk * Fraction(-(k - 1) * (m + 1 - k)) / ((a - k) * (b - k))
            want.append(dk)
        for g, w in zip(got, want):
            assert g == complex(float(w)), (m, be, mu, g, float(w))
            exact += 1
    print("criterion 5: %d principal coefficients exact" % (exact,))


# ---------------------------------------------------------------------------
# criterion 6: Bessel cross-checks

def _i_series(m, z):
    s = 0.0j
    t = (z / 2.0) ** m / math.factorial(m)
    for k in range(60):
        s += t
        t *= (z / 2.0) ** 2 / ((k + 1) * (m + k + 1))
    return s


def _j_series(m, z):
    mm = abs(m)
    s = 0.0j
    t = (z / 2.0) ** mm / math.factorial(mm)
    for k in range(60):
        s += t
        t *= -(z / 2.0) ** 2 / ((k + 1) * (mm + k + 1))
    return s if (m >= 0 or mm % 2 == 0) else -s


def test_criterion_6_bessel_cross_checks():
    import mpmath as mp

    worst_k = 0.0
    for m in (0, 1):
        # K_m(1) = int_0^inf e^(-cosh t) cosh(m t) dt
        want = float(mp.quad(lambda t, m=m: mp.exp(-mp.cosh(t))
                             * mp.cosh(m * t), [0, 30]))
        got = bessel("K", m, 1.0).value
        worst_k = max(worst_k, abs(got - want))
    assert worst_k <= 1e-8

    worst_ij = 0.0
    for m in (0, 1, 3, -2):
        for z in (0.6, 1.3, complex(0.8, 0.5)):
            zc = complex(z)
            wi = _i_series(abs(m), zc)  # I is even in the order
            wj = _j_series(m, zc)
            worst_ij = max(
                worst_ij,
                abs(bessel("I", m, zc).value - wi) / max(1.0, abs(wi)),
                abs(bessel("J", m, zc).value - wj) / max(1.0, abs(wj)))
    assert worst_ij <= 1e-12

    worst_h = 0.0
    for m in (0, 1, 2):
        for z in (complex(0.8, 0.5), complex(1.1, -0.4), complex(0.5, 1.0)):
            h1 = bessel("H1", m, z).value
            h2 = bessel("H2", m, z).value
            jj = bessel("J", m, z).value
            worst_h = max(worst_h, abs(h1 + h2 - 2.0 * jj))
    print("criterion 6: K vs quadrature %.3e (tol 1e-8), I/J vs series "
          "%.3e (tol 1e-12), Hankel sum %.3e (tol 1e-9)"
          % (worst_k, worst_ij, worst_h))
    assert worst_h <= 1e-9


# ---------------------------------------------------------------------------
# criterion 7: degenerate proportionality

def test_criterion_7_degenerate_proportionality():
    th, be, mu = 0.7, 0.3, 0.2
    z01 = _ring((0.4, 0.9), (0.6, 1.9, -2.1))
    z2 = _ring((0.3, 0.55), (0.7, 2.0, -2.0))
    worst = 0.0
    for m in (1, 2, 3):
        for z in z01:
            lhs = f_norm(F0(float(m)), z).value
            rhs = principal_pow(z, -m) * f_norm(F0(float(-m)), z).value
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
            c = pochhammer((th - m + 1) / 2, m)
            lhs = c * f_norm(F1(th, float(m)), z).value
            rhs = principal_pow(z, -m) * f_norm(F1(th, float(-m)), z).value
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        forms = (
            pochhammer((1 - m + be - mu) / 2, m)
            * pochhammer((1 - m + be + mu) / 2, m),
            pochhammer((1 - m - be - mu) / 2, m)
            * pochhammer((1 - m - be + mu) / 2, m),
            (-1.0) ** m * pochhammer((1 - m + be + mu) / 2, m)
            * pochhammer((1 - m - be + mu) / 2, m),
            (-1.0) ** m * pochhammer((1 - m + be - mu) / 2, m)
            * pochhammer((1 - m - be - mu) / 2, m),
        )
        for z in z2:
            lhs = principal_pow(z, -m) * f_norm(F2(float(-m), be, -mu),
                                                z).value
            base = f_norm(F2(float(m), be, mu), z).value
            for c in forms:
                worst = max(worst, abs(lhs - c * base)
                            / max(1.0, abs(lhs), abs(c * base)))
    print("criterion 7: worst scaled residual %.3e (tol 1e-11)" % (worst,))
    assert worst <= 1e-11


# ---------------------------------------------------------------------------
# criterion 8: CLI exit codes and catalog mutation testing

def _verify_args(**over):
    base = dict(id=None, suite=None, points=25, tol=1e-8, format="json")
    base.update(over)
    return argparse.Namespace(command="verify", **base)


def test_criterion_8_cli_contract_and_mutation(capsys):
    assert cli.main(["verify", "--suite", "all"]) == 0
    capsys.readouterr()

    # corrupting any one stored constant must flip the verdict
    flagged = 0
    for key in sorted(build_catalog()):
        cat = build_catalog()
        cat[key] = dataclasses.replace(cat[key],
                                       constant=cat[key].constant * 1.01)
        code = cli.cmd_verify(_verify_args(id=key), io.StringIO(),
                              catalog=cat)
        assert code == 1, "mutation of %s went undetected" % (key,)
        flagged += 1
    assert flagged == 61

    # and the aggregate suite reports it too, not just the targeted check
    cat = build_catalog()
    cat["q.sasa"] = dataclasses.replace(cat["q.sasa"], constant=1.01)
    code = cli.cmd_verify(_verify_args(suite="all"), io.StringIO(),
                          catalog=cat)
    assert code == 1
    print("criterion 8: clean suite exit 0; all 61 single-constant "
          "mutations exit 1")
