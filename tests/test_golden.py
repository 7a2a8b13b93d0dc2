"""A digest over every engine's results on the differential-test inputs.

The term core is rewritten for speed from time to time; results must stay
bit-identical through that.  The digest covers, for each input term and
strategy at a small fuel, the canonical lower approximant, residual and
frontier of `approximate` in the run's order, `Bracket.divergence()`, and
`eval_big`.  A changed digest means some engine's output changed.
"""

import hashlib

import pytest

from helpers import gate_terms
from plam.bigstep import eval_big
from plam.reduction import STRATEGIES
from plam.smallstep import approximate
from plam.syntax import print_term

FUEL = 12

DIGESTS = {
    "cbn": "3ff67ebc8a391093586460da80a313bdf2daa6d2e49e747a06d3fd8508d8eacb",
    "cbv": "17037cda08a123def31ad854cfd94151cf5e9a22c9bb53c1241454f7c12fc8e8",
}


def _mass(m) -> str:
    return f"{m.num}/2^{m.exp}"


def _pairs(pairs) -> str:
    return ";".join(f"{print_term(t, canonical=True)}={_mass(m)}" for t, m in pairs)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_engine_results_match_the_pinned_digest(strategy):
    digest = hashlib.sha256()
    for t in gate_terms():
        b = approximate(t, strategy, FUEL)
        low, up = b.divergence()
        lines = (
            print_term(t, canonical=True),
            _pairs(b.lower.items()),
            _mass(b.residual),
            _pairs(b.frontier),
            f"{_mass(low)} {_mass(up)}",
            _pairs(eval_big(t, strategy, FUEL).items()),
        )
        digest.update("\n".join(lines).encode())
        digest.update(b"\n\n")
    assert digest.hexdigest() == DIGESTS[strategy]
