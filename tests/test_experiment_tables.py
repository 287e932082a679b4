"""Golden hashes of the serving experiments' printed tables.

Each figure's ``python -m repro.experiments <figure> --scale 0.05``
output, less its ``[<figure> done in <t>s]`` timing line, must hash to
the recorded value: the experiment harness may be restructured, but
every printed cell stays the same.
"""

import hashlib
import re

import pytest

from repro.experiments.__main__ import main

TIMING_LINE = re.compile(r"^\[\S+ done in [0-9.]+s\]$")

# Every table except sessions' and elastic-fleet's hashes as recorded
# before the harness was shared.  Sessions was re-recorded once, when
# each sweep point started drawing at least one session: its 0.4
# sessions/s rows at this scale used to serve an empty trace and print
# ``inf``.  Elastic-fleet was re-recorded once, when the bursty Mixed
# scenario stopped serving ``steal+migrate``, which re-served the
# ``steal`` fleet there: that table lost the row, and its variant column
# narrowed to the widest name left.
GOLDEN = {
    "figure10": "32376837a0d39acb",
    "figure11": "f2e203dfafc41ab6",
    "figure12": "dbb51e2608596d41",
    "fleet": "054bdb5667455a7a",
    "sessions": "d8deae4f265e5942",
    "elastic-fleet": "8d16e8a7ab0b2beb",
    "disagg": "331d3a8b7139c36e",
}


def table_digest(output: str) -> str:
    kept = [line for line in output.splitlines() if not TIMING_LINE.match(line)]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()[:16]


@pytest.mark.parametrize("figure", list(GOLDEN))
def test_printed_tables_are_unchanged(figure, capsys):
    assert main([figure, "--scale", "0.05"]) == 0
    assert table_digest(capsys.readouterr().out) == GOLDEN[figure]
