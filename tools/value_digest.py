"""The value digest of a hyperd eval or table output: the sha256 of the z
and value columns of its records alone.

    python tools/value_digest.py FILE [FILE ...]

prints one line "<digest>  <FILE>" per file, as sha256sum does.  A file
that starts with "{" is read as the JSON output, any other as the CSV.
Each record gives one line of its z_re, z_im, value_re and value_im
fields as the file writes them, joined by commas.  So err_estimate,
terms_used and flags leave the digest alone, a value one ulp off moves
it, and the CSV and JSON outputs of one request have the same digest
wherever every number is finite (JSON writes a non-finite one as null).
Standard library only.
"""

import hashlib
import json
import sys

COLUMNS = ("z_re", "z_im", "value_re", "value_im")


def _fields(text):
    # the COLUMNS of each record, as written
    if text.startswith("{"):
        records = json.loads(text, parse_float=str, parse_int=str)["records"]
        return [["null" if r[k] is None else r[k] for k in COLUMNS] for r in records]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    at = [header.index(k) for k in COLUMNS]
    return [[cells[i] for i in at] for cells in (line.split(",") for line in lines[1:])]


def digest(text):
    """The sha256, in hex, of the z and value fields of the output text."""
    body = "".join(",".join(row) + "\n" for row in _fields(text))
    return hashlib.sha256(body.encode()).hexdigest()


def main(paths):
    for path in paths:
        with open(path, encoding="utf-8") as f:
            print("%s  %s" % (digest(f.read()), path))


if __name__ == "__main__":
    main(sys.argv[1:])
