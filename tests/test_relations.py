"""The relation catalog: structure, spot checks, sweeps and ladders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperd.dfun import d_eval, log_solution, prepare_log_solution
from hyperd.errors import DomainError, Inapplicable, UnknownRelation
from hyperd.ffun import F0, f_norm
from hyperd.gammakit import pochhammer
from hyperd.relations import (
    SWEEP_POINTS,
    TOL_SWEEP,
    apply_ladder,
    build_catalog,
    check_relation,
    sweep_catalog,
    sweep_record,
)


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


_CAT = build_catalog()


def test_catalog_size_and_families(catalog):
    assert len(catalog) == 61
    fams = {}
    for rec in catalog.values():
        fams[rec.family] = fams.get(rec.family, 0) + 1
    assert fams == {"RecurrenceF": 20, "RecurrenceD": 20,
                    "Contiguity": 10, "Kummer": 2, "Quadratic": 9}
    for key, rec in catalog.items():
        assert rec.id == key
        assert rec.kind in ("0f1", "1f1", "2f1", "quadratic")
        assert rec.statement
        assert isinstance(rec.constant, float)
        assert rec.signature


def test_sweep_defaults():
    assert SWEEP_POINTS == 25
    assert TOL_SWEEP == 1e-8


def test_catalog_is_rebuilt_fresh(catalog):
    other = build_catalog()
    assert other is not catalog
    assert set(other) == set(catalog)


def test_unknown_and_inapplicable(catalog):
    with pytest.raises(UnknownRelation):
        check_relation("no.such.key", {"m": 1}, 0.3, catalog)
    with pytest.raises(Inapplicable):
        # the contiguity chain reaches m - 1
        check_relation("f0.contiguity", {"m": 0}, 0.3, catalog)
    with pytest.raises(Inapplicable):
        # m-lowering companion rows hold only for m >= 1
        check_relation("f1.recurD.lower-down", {"m": 0, "theta": 0.7},
                       0.3, catalog)
    with pytest.raises(Inapplicable):
        check_relation("f2.recurDI.mm0",
                       {"m": 0, "beta": 0.3, "mu": 0.2}, 0.3, catalog)
    # contiguity records check their parameter keys like every other record
    with pytest.raises(Inapplicable):
        check_relation("f1.contig.alpha-up", {"m": 1}, 0.3, catalog)
    with pytest.raises(Inapplicable):
        check_relation("f2.contigDI.c3", {"m": 1, "mu": 0.2}, 0.3, catalog)
    # and the 1f1 companion contiguities, false at negative m, refuse it
    with pytest.raises(Inapplicable):
        check_relation("f1.contig.alpha-up", {"m": -1, "theta": 0.7},
                       0.3, catalog)
    # m must be an integer, companion records and quadratic ones alike
    with pytest.raises(Inapplicable):
        check_relation("f0.contiguity", {"m": 1.5}, 0.4, catalog)
    with pytest.raises(Inapplicable):
        check_relation("f2.recurDI.p0m",
                       {"m": 1.5, "beta": 0.3, "mu": 0.2}, 0.4, catalog)
    with pytest.raises(Inapplicable):
        check_relation("q.sasa3", {"m": 0.5, "beta": 0.3}, 0.4, catalog)
    with pytest.raises(UnknownRelation):
        sweep_catalog(catalog, n=1, ids=["no.such"])


def test_sweep_needs_a_point(catalog):
    rec = catalog["f0.recurF.raise"]
    for n in (0, -2):
        with pytest.raises(DomainError, match="n = %d" % n):
            sweep_record(rec, n=n, catalog=catalog)
        with pytest.raises(DomainError, match="n = %d" % n):
            sweep_catalog(catalog, n=n)
    with pytest.raises(DomainError, match="n = 0"):
        sweep_catalog(catalog, n=0, ids=[])


def test_spot_checks(catalog):
    assert check_relation("f0.contiguity", {"m": 1}, 0.4, catalog) < 1e-10
    assert check_relation("f0.recurD.raise", {"m": 0}, 0.5, catalog) < 1e-10
    assert check_relation("f2.kummer.pow",
                          {"alpha": 0.2, "beta": 0.3, "mu": 0.4},
                          0.3, catalog) < 1e-11
    assert check_relation("f0.contiguity", {"m": 2}, complex(0.8, 0.1),
                          catalog) < 1e-11
    assert check_relation("q.double1", {"alpha": 0.3}, 0.2,
                          catalog) < 1e-11
    assert check_relation("q.double5", {"m": 1}, 0.15, catalog) < 1e-9
    assert check_relation("q.sasa3", {"m": 1, "beta": 0.3}, -0.2,
                          catalog) < 1e-8


def test_stored_constants(catalog):
    # the three genuinely non-unit prefactors, stored as data
    assert catalog["q.double2"].constant == 2.0
    assert catalog["q.double5"].constant == 2.0
    assert catalog["q.sasa3"].constant == 0.5
    others = [r for k, r in catalog.items()
              if k not in ("q.double2", "q.double5", "q.sasa3")]
    assert all(r.constant == 1.0 for r in others)


def test_sasa3_constant_rederivation(catalog):
    # solve for the prefactor from the raw sides at independent points;
    # the stored constant must be the value the identity forces
    rec = catalog["q.sasa3"]
    for params, z in (({"m": 1, "beta": 0.3}, complex(-0.2, 0.1)),
                      ({"m": 2, "beta": -0.2}, complex(-0.3, 0.15))):
        lhs = complex(rec.lhs(params, z))
        rhs = complex(rec.rhs(params, z))
        fitted = lhs / rhs
        assert abs(fitted - rec.constant) < 1e-8
    assert rec.constant == 0.5


def test_f_ladder_round_trip(catalog):
    # raising then lowering must return the starting value
    z = complex(0.7, 0.2)
    base = f_norm(F0(alpha=0.3), z).value
    up = apply_ladder("f0.recurF.raise", {"alpha": 0.3}, z, catalog)
    want_up = f_norm(F0(alpha=1.3), z).value
    assert abs(up.value - want_up) < 1e-12
    down = apply_ladder("f0.recurF.lower", {"alpha": 1.3}, z, catalog)
    assert abs(down.value - base) < 1e-12
    assert up.err_estimate > 0


def test_d_ladder_produces_the_shifted_companion(catalog):
    z = complex(0.45, 0.25)
    got = apply_ladder("f0.recurD.raise", {"m": 1}, z, catalog)
    want = d_eval(F0(2), z).value
    assert abs(got.value - want) < 1e-11


def test_ladder_guards(catalog):
    with pytest.raises(Inapplicable):
        apply_ladder("f0.contiguity", {"m": 1}, 0.3, catalog)
    with pytest.raises(Inapplicable):
        apply_ladder("f1.recurD.lower-down", {"m": 0, "theta": 0.7},
                     0.3, catalog)


def test_shifted_metadata(catalog):
    params = catalog["f0.recurD.raise"].shifted({"m": 1})
    assert params == F0(2)
    params = catalog["f0.recurF.raise"].shifted({"alpha": 0.3})
    assert params == F0(alpha=1.3)


@pytest.mark.parametrize("key,params", [
    ("f1.recurD.raise-up", {"m": 1, "theta": 0.7}),
    ("f1.recurD.lower-down", {"m": 2, "theta": 0.3}),
    ("f1.recurD.z-raise-theta2", {"m": 2, "theta": 0.3}),
    ("f1.contig.theta", {"m": 1, "theta": 0.6}),
    ("f2.recurDI.pp0", {"m": 1, "beta": 0.3, "mu": 0.2}),
    ("f2.recurDI.mm0", {"m": 2, "beta": 0.3, "mu": 0.2}),
    ("f2.contigDI.c5", {"m": 1, "beta": 0.3, "mu": 0.2}),
    ("f2.kummer.powU", {"alpha": 0.4, "beta": 0.3, "mu": 0.2}),
])
def test_confluent_and_gauss_rows(key, params, catalog):
    z = complex(0.35, 0.2)
    assert check_relation(key, params, z, catalog) < 1e-9


def test_log_solution_meta_property():
    # the raise row lifts the full log solution: d/dz (log z F_m + D_m)
    # equals log z F_{m+1} + D_{m+1}, the commutator term cancelling
    z = complex(0.5, 0.4)
    for m in (0, 2):
        _, w1 = prepare_log_solution(F0(m)).jet(z, 1)
        want = log_solution(F0(m + 1), z).value
        assert abs(w1.value - want) < 1e-11


def test_sweep_record_determinism(catalog):
    rec = catalog["f0.recurF.raise"]
    a = sweep_record(rec, n=10, catalog=catalog)
    b = sweep_record(rec, n=10, catalog=catalog)
    assert [(p.z, p.residual) for p in a] == [(p.z, p.residual) for p in b]
    assert len(a) == 10
    assert all(p.scaled <= TOL_SWEEP for p in a)


def test_sweep_point_scale(catalog):
    for p in sweep_record(catalog["f0.recurF.raise"], n=3, catalog=catalog):
        assert p.scale >= 1.0
        assert p.scaled == p.residual / p.scale


def test_sweep_honors_domains(catalog):
    for key in ("f1.recurD.lower-down", "f2.recurDI.mm0",
                "f1.contig.alpha-down"):
        for p in sweep_record(catalog[key], n=8, catalog=catalog):
            assert int(p.params["m"]) >= 1


def test_full_catalog_sweep_smoke(catalog):
    worst = sweep_catalog(catalog, n=5)
    assert set(worst) == set(catalog)
    bad = {k: v for k, v in worst.items() if v > TOL_SWEEP}
    assert not bad, bad


def test_quadratic_branch_zone(catalog):
    rec = catalog["q.uu0"]
    assert "Im" in rec.statement
    # on the negative real axis both arguments sit off the U cut
    assert check_relation(rec, {"alpha": 0.2, "beta": 0.3},
                          complex(-0.5, 0.0), catalog) < 1e-10


def test_degenerate_proportionality_constant_forms():
    # the four equivalent products for the 2f1 proportionality constant
    beta, mu = 0.3, 0.2
    for m in (1, 2, 3):
        c1 = pochhammer((1 - m + beta - mu) / 2, m) \
            * pochhammer((1 - m + beta + mu) / 2, m)
        c2 = pochhammer((1 - m - beta - mu) / 2, m) \
            * pochhammer((1 - m - beta + mu) / 2, m)
        c3 = (-1.0) ** m * pochhammer((1 - m + beta + mu) / 2, m) \
            * pochhammer((1 - m - beta + mu) / 2, m)
        c4 = (-1.0) ** m * pochhammer((1 - m + beta - mu) / 2, m) \
            * pochhammer((1 - m - beta - mu) / 2, m)
        for other in (c2, c3, c4):
            assert abs(c1 - other) < 1e-13 * max(1.0, abs(c1))


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(min_value=-2, max_value=4).map(float),
                 st.floats(min_value=0.1, max_value=1.7)),
       st.complex_numbers(min_magnitude=0.05, max_magnitude=2.0,
                          allow_nan=False, allow_infinity=False))
def test_f0_recurrence_rows_property(alpha, z):
    for key in ("f0.recurF.raise", "f0.recurF.lower"):
        raw = check_relation(key, {"alpha": alpha}, z, _CAT)
        assert raw <= 1e-9 * max(1.0, abs(z) ** 2)


def test_recurrence_records_sum_only_the_one_jet(catalog, monkeypatch):
    # the lhs and the ladder read F and F' (D and D'), so the second
    # derivative is never summed
    from hyperd import dfun, ffun

    calls = []
    for mod in (ffun, dfun):
        real = mod.sum_power_series
        monkeypatch.setattr(mod, "sum_power_series",
                            lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
    z = 0.3 + 0.1j
    for key, d in (("f0.recurF.raise", {"alpha": 1}),
                   ("f1.recurF.raise-up", {"alpha": 2, "theta": 0.7}),
                   ("f2.recurFI.pp0", {"alpha": 1, "beta": 0.3, "mu": 0.2}),
                   ("f0.recurD.raise", {"m": 2}),
                   ("f1.recurD.raise-up", {"m": 2, "theta": 0.7}),
                   ("f2.recurDI.pp0", {"m": 2, "beta": 0.3, "mu": 0.2})):
        rec = catalog[key]
        del calls[:]
        rec.lhs(d, z)
        assert len(calls) == 2, key
        # the ladder adds the value of F at the unshifted parameters to D's
        del calls[:]
        rec.ladder(d, z)
        assert len(calls) == (3 if "recurD" in key else 2), key
