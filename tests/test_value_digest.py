"""tools/value_digest.py: the digest of the z and value columns of an
eval/table output.  A change to err_estimate, terms_used or flags leaves
it as it is; a value one ulp off moves it."""

import importlib.util
import math
import pathlib
import re

import pytest

from hyperd import cli

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "value_digest.py"
_spec = importlib.util.spec_from_file_location("value_digest", _PATH)
value_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(value_digest)

# a U table on both sides of the far rule: z = 25 takes the expansion
_ARGV = ["table", "--eq", "1f1", "--func", "U", "--m", "2", "--theta", "0.7",
         "--grid=1:25:3,0:0:1"]


@pytest.fixture
def outputs(capsys):
    out = {}
    for fmt in ("csv", "json"):
        assert cli.main(_ARGV + ["--format", fmt]) == 0
        out[fmt] = capsys.readouterr().out
    return out


def _csv_edited(text, edit):
    """text with edit(i, cells) giving the cells of its i-th record row."""
    lines = text.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if line.startswith("z_re,")) + 1
    rows = [",".join(edit(i, line.rstrip("\n").split(","))) + "\n"
            for i, line in enumerate(lines[start:])]
    return "".join(lines[:start] + rows)


def _ulp_up(cell):
    return "%.17g" % math.nextafter(float(cell), math.inf)


def test_csv_and_json_of_one_request_have_one_digest(outputs):
    assert value_digest.digest(outputs["csv"]) == value_digest.digest(outputs["json"])


def test_estimates_terms_and_flags_leave_the_digest(outputs):
    text = outputs["csv"]
    other = _csv_edited(text, lambda i, c: c[:4] + ["0.5", "9999", "NearPole|TruncationMaxed"])
    assert other != text
    assert value_digest.digest(other) == value_digest.digest(text)
    text = outputs["json"]
    other = re.sub(r'"err_estimate":[^,]*', '"err_estimate":0.5', text)
    other = re.sub(r'"terms_used":\d+', '"terms_used":9999', other)
    other = other.replace('"flags":[]', '"flags":["NearPole"]')
    assert other != text
    assert value_digest.digest(other) == value_digest.digest(text)


def test_one_ulp_in_one_value_moves_the_digest(outputs):
    text = outputs["csv"]
    other = _csv_edited(text, lambda i, c: c[:2] + [_ulp_up(c[2]) if i == 1 else c[2]] + c[3:])
    assert other != text
    assert value_digest.digest(other) != value_digest.digest(text)
    text = outputs["json"]
    other = re.sub(r'"value_im":([^,]*)', lambda m: '"value_im":' + _ulp_up(m.group(1)), text, count=1)
    assert other != text
    assert value_digest.digest(other) != value_digest.digest(text)


def test_the_script_prints_sha256sum_lines(tmp_path, capsys, outputs):
    path = tmp_path / "table.csv"
    path.write_text(outputs["csv"])
    value_digest.main([str(path)])
    assert capsys.readouterr().out == "%s  %s\n" % (value_digest.digest(outputs["csv"]), path)
