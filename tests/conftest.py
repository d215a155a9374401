import numpy as np
import pytest

from ranklaw import rank

# Published per-region city counts for the reference year (descending order).
REGION_COUNTS_2011 = [
    1544, 1206, 581, 551, 409, 390, 378, 377, 348, 333,
    305, 287, 258, 239, 235, 218, 136, 131, 92, 74,
]
REGION_COUNTS_2007 = [
    1546, 1206, 581, 551, 409, 390, 378, 377, 341, 339,
    305, 287, 258, 246, 235, 219, 136, 131, 92, 74,
]


def ranked(values, rule=rank.TieBreak.LEXICAL_NAME, names=None):
    """rank.rank_desc on an {id: value} map, with names an {id: name} map."""
    return rank.rank_desc(tuple(values), list(values.values()), rule,
                          None if names is None else [names.get(e, e) for e in values])


@pytest.fixture
def region_count_series():
    values = {f"reg{i:02d}": float(v) for i, v in enumerate(REGION_COUNTS_2011)}
    return ranked(values, rule=rank.TieBreak.ENTITY_ID)


@pytest.fixture
def rng():
    return np.random.default_rng(20110101)


# Verdict lines collected by the acceptance tests, echoed after the run so
# they survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


LONG_PANEL = """\
entity_id,name,region,province,year,value
c1,Alpha,R1,P1,2007,100
c1,Alpha,R1,P1,2008,110
c2,Beta,R1,P1,2007,200
c2,Beta,R1,P1,2008,210
c3,Gamma,R2,P2,2007,50
c3,Gamma,R2,P2,2008,55
"""

WIDE_PANEL = """\
entity_id,name,region,province,2007,2008
c1,Alpha,R1,P1,100,110
c2,Beta,R1,P1,200,210
c3,Gamma,R2,P2,50,55
"""


@pytest.fixture
def long_panel_text():
    return LONG_PANEL


@pytest.fixture
def wide_panel_text():
    return WIDE_PANEL
