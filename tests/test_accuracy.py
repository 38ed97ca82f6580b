"""The accuracy ledger's ratchet (tools/accuracy_ledger.py).

The package is evaluated at the committed cases of tests/accuracy_refs.json,
whose mpmath references were computed once, and the outcome counts per
family and |z| band are compared with the committed ACCURACY.json: no
count of silently wrong outcomes may rise and no count of bounded ones
may fall.  mpmath is not imported.
"""

import importlib.util
import json
import pathlib
from decimal import Decimal

from hyperd.ffun import F1, f_norm

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "accuracy_ledger.py"
_spec = importlib.util.spec_from_file_location("accuracy_ledger", _TOOL)
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)


def test_ledger_counts_only_tighten(monkeypatch):
    # a None entry makes `import mpmath` raise ImportError
    monkeypatch.setitem(__import__("sys").modules, "mpmath", None)
    cases = ledger.load_cases()
    committed = json.loads(ledger.LEDGER.read_text())["counts"]
    got, _ = ledger.counts(cases)
    assert len(cases) == 612
    worse = []
    for family, bands in committed.items():
        for band, want in bands.items():
            row = got[family][band]
            assert sum(row.values()) == sum(want.values()), (family, band)
            if row["wrong"] > want["wrong"] or row["bounded"] < want["bounded"]:
                worse.append((family, band, want, row))
    assert worse == []


def test_outcomes_follow_their_definitions():
    # one case per outcome, by hand; the error is taken in decimal, so a
    # reference equal to the double value has error 0
    case = {"family": "F1", "band": "0-8", "theta": [0.7, 0.0], "alpha": 2.0, "z": [0.5, 0.0]}
    r = f_norm(F1(0.7, 2.0), 0.5)
    exact = dict(case, ref=[str(Decimal(r.value.real)), str(Decimal(r.value.imag))])
    assert ledger.outcome(exact) == ("bounded", 0.0)
    off = abs(r.value) * 1e-12
    near = dict(case, ref=[repr(r.value.real + off), repr(r.value.imag)])
    assert ledger.outcome(near)[0] == "unbounded"
    far = dict(case, ref=[repr(r.value.real * 2), repr(r.value.imag)])
    assert ledger.outcome(far)[0] == "wrong"
    # logsol1 at a non-integer order is refused at the door
    typed = dict(case, family="logsol1", alpha=2.5, ref=["1", "0"])
    assert ledger.outcome(typed) == ("typed_error", None)
