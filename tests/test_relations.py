"""The relation catalog: structure, spot checks, sweeps and ladders."""

import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperd import relations
from hyperd.dfun import d_eval, log_solution, prepare_log_solution
from hyperd.errors import (DomainError, Inapplicable, ParameterSingular,
                           UnknownRelation)
from hyperd.ffun import F0, f_norm
from hyperd.gammakit import pochhammer
from hyperd.relations import (
    SWEEP_POINTS,
    TOL_SWEEP,
    RelationRecord,
    SweepPoint,
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


def test_relation_record_contract(catalog):
    rec = RelationRecord("x.id", "0f1", "Fam", "alpha", "s", 1.0, abs, abs, abs, callable)
    assert repr(rec) == (
        "RelationRecord(id='x.id', kind='0f1', family='Fam', signature='alpha', "
        "statement='s', constant=1.0, lhs=<built-in function abs>, "
        "rhs=<built-in function abs>, sample=<built-in function abs>, "
        "applicable=<built-in function callable>, ladder=None, shifted=None)")
    fields = dict(id="x.id", kind="0f1", family="Fam", signature="alpha", statement="s",
                  constant=1.0, lhs=abs, rhs=abs, sample=abs, applicable=callable)
    same = RelationRecord(**fields)
    assert same == rec and hash(same) == hash(rec)
    assert rec == tuple(fields.values()) + (None, None)
    assert RelationRecord.__match_args__ == RelationRecord._fields
    for name in ("constant", "other"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 2.0)
    assert rec._replace(constant=2.0).constant == 2.0 and rec.constant == 1.0
    assert rec._asdict() == {**fields, "ladder": None, "shifted": None}
    assert pickle.loads(pickle.dumps(rec)) == rec
    with pytest.raises(TypeError):
        RelationRecord(**fields, weight=1.0)
    # a catalog record with its constant moved is the same record otherwise
    q = catalog["q.sasa"]._replace(constant=1.01)
    assert q.constant == 1.01 and q._replace(constant=1.0) == catalog["q.sasa"]


def test_sweep_point_contract():
    pt = SweepPoint(params={"m": 1}, z=0.3j, residual=1e-16, scale=2.0)
    assert repr(pt) == "SweepPoint(params={'m': 1}, z=0.3j, residual=1e-16, scale=2.0)"
    assert pt == SweepPoint({"m": 1}, 0.3j, 1e-16, 2.0) == ({"m": 1}, 0.3j, 1e-16, 2.0)
    assert pt.scaled == 5e-17
    assert SweepPoint.__match_args__ == ("params", "z", "residual", "scale")
    for name in ("residual", "other"):
        with pytest.raises(AttributeError):
            setattr(pt, name, 0.0)
    assert pt._replace(scale=1.0).scaled == 1e-16
    assert pt._asdict() == {"params": {"m": 1}, "z": 0.3j, "residual": 1e-16, "scale": 2.0}
    assert pickle.loads(pickle.dumps(pt)) == pt
    with pytest.raises(TypeError):
        SweepPoint(params={}, z=0j, residual=0.0, scale=1.0, weight=1.0)


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
    # the two quadratic companion identities hold for m >= 0
    with pytest.raises(Inapplicable):
        check_relation("q.double5", {"m": -1}, 0.5, catalog)
    with pytest.raises(Inapplicable):
        check_relation("q.sasa3", {"m": -1, "beta": 0.3}, 0.3, catalog)
    # a D at the parameters or at a shift is singular: a = (1+m+theta)/2 = 0
    # at m = 1, theta = -2, and b = (1+m+beta+mu)/2 = 1 for the 2F1 row
    with pytest.raises(Inapplicable):
        check_relation("f1.recurD.raise-up", {"m": 1, "theta": -2.0}, 0.3, catalog)
    with pytest.raises(Inapplicable):
        check_relation("f2.contigDI.c3", {"m": 1, "beta": 0.5, "mu": -0.5}, 0.3, catalog)
    # an m that int() refuses is not an integer
    with pytest.raises(Inapplicable):
        check_relation("f0.contiguity", {"m": math.inf}, 0.3, catalog)
    with pytest.raises(Inapplicable):
        check_relation("f0.contiguity", {"m": "x"}, 0.3, catalog)
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


def test_every_record_with_alpha_holds_at_a_complex_alpha(catalog):
    # a complex alpha is read as given (every other input through float(),
    # which keeps a real one's bits): each record whose signature has alpha
    # holds at its sampler's draws moved by 0.1i (worst 1.2e-14 scaled)
    keys = [k for k, rec in catalog.items() if "alpha" in rec.signature.split(",")]
    assert len(keys) == 29
    for key in keys:
        rng = random.Random("complex-alpha/" + key)
        for _ in range(10):
            params, z = catalog[key].sample(rng)
            params["alpha"] += 0.1j
            lhs, rhs = relations._sides(catalog[key], params, z)
            residual = check_relation(key, params, z, catalog)
            assert residual == abs(lhs - rhs)
            assert residual <= 1e-13 * max(1.0, abs(lhs), abs(rhs)), (key, params, z)


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
    # a companion row divides by z, also where D has no pole at z = 0
    with pytest.raises(DomainError, match=r"z = 0j"):
        apply_ladder("f0.recurD.raise", {"m": 0}, 0.0, catalog)
    with pytest.raises(DomainError, match=r"z = 0j"):
        check_relation("f0.recurD.lower", {"m": -1}, 0.0, catalog)
    # a ladder whose coefficient is 0 does not fix the shifted value
    with pytest.raises(DomainError, match=r"by 0\.0 at z = \(0\.3\+0j\)"):
        apply_ladder("f2.recurFI.m0m", {"alpha": 1, "beta": 0.0, "mu": 0.0}, 0.3, catalog)
    # q.sasa5's map 4z(z-1)/(1-2z)^2 has a pole at z = 1/2
    with pytest.raises(DomainError, match=r"z = \(0.5\+0j\)"):
        check_relation("q.sasa5", {"alpha": 0.2, "beta": 0.3}, 0.5, catalog)


@pytest.mark.parametrize("key, params", [
    ("q.double1", {"alpha": 0.3}),
    ("q.double2", {"alpha": 0.3}),
    ("q.double5", {"m": 1}),
])
def test_a_side_that_maps_z_names_the_callers_z(key, params, catalog):
    # z^2 overflows a double, so the evaluator's door refuses the image;
    # the error names the z the caller gave
    with pytest.raises(DomainError, match=r"^z must be finite, got z = \(1e\+200\+0j\)$"):
        check_relation(key, params, 1e200, catalog)


def test_an_error_at_a_finite_image_names_the_image(catalog):
    # q.sasa3 maps z = 0.85 to w = z^2/(4(z-1)), |w| = 1.204 past the D
    # series' disc; the message quotes |w| and names w, not z
    with pytest.raises(DomainError, match=r"got \|z\| = 1\.204\d* at z = \(-1\.204\d*-0j\)$"):
        check_relation("q.sasa3", {"m": 0, "beta": 0.2}, 0.85, catalog)


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


@pytest.mark.parametrize("prefix", [relations._GRID_VERSION, "sampler-contract"])
def test_samplers_draw_applicable_points(prefix, catalog):
    # sweep_record evaluates each draw without calling rec.applicable, so
    # every sampler draws only applicable points: the first 300 draws of
    # the sweep's own stream, and 300 of a second one
    assert len(catalog) == 61
    for key, rec in catalog.items():
        rng = random.Random("%s/%s" % (prefix, key))
        for i in range(300):
            params, _ = rec.sample(rng)
            assert rec.applicable(params), (key, i, params)


def test_sweep_evaluates_a_draw_that_breaks_the_sampler_contract(catalog):
    # a record whose sampler draws an inapplicable point has that draw
    # evaluated: a skippable error skips it, any other error is raised
    base = catalog["f0.recurF.raise"]
    seen = []

    def lhs(params, z):
        seen.append(params["alpha"])
        if params["alpha"] < 0:
            raise ParameterSingular("alpha < 0")
        return base.lhs(params, z)

    def sample(rng):
        params, z = base.sample(rng)
        return {"alpha": -1.0 if len(seen) % 2 else params["alpha"]}, z

    rec = base._replace(id="x.contract", lhs=lhs, sample=sample,
                        applicable=lambda params: params["alpha"] >= 0)
    pts = sweep_record(rec, n=3)
    assert len(seen) == 5 and seen[1] == seen[3] == -1.0
    assert [p.params["alpha"] for p in pts] == [seen[0], seen[2], seen[4]]

    def broken(params, z):
        raise ZeroDivisionError("broken side")

    with pytest.raises(ZeroDivisionError, match="broken side"):
        sweep_record(rec._replace(rhs=broken), n=1)

    # a record none of whose draws is usable gives up after 80 n draws
    draws = []

    def never(params, z):
        draws.append(z)
        raise ParameterSingular("never usable")

    with pytest.raises(Inapplicable, match="cannot draw 2 applicable points for x.contract"):
        sweep_record(rec._replace(lhs=never), n=2)
    assert len(draws) == 160
