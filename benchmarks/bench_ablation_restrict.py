"""Ablation: the Section 5.1 ``restrict`` observation.

The paper notes that on the Itanium, adding ``restrict`` qualifiers
lets the compiler hoist the loads itself, making the *baseline* perform
like the hand-transformed code.  Compiling the original hmmsearch with
the restrict alias model must therefore recover most of the manual
transformation's benefit, while under may-alias it cannot (Figure 5's
store-blocked hoisting).  The bar is the claims ledger's
``sec51.restrict`` row, which ``repro report`` checks too.
"""

from repro.core import claims
from repro.core import experiments as E
from repro.core.reporting import format_table, pct

import os

EVAL_SCALE = os.environ.get("REPRO_EVAL_SCALE", "small")


def test_ablation_restrict(publish):
    row = E.section51_restrict(EVAL_SCALE, seed=0)
    publish(
        "ablation_restrict",
        format_table(
            ["hmmsearch on Itanium 2", "cycles", "speedup vs baseline"],
            [
                ["original, may-alias", row.original_cycles, pct(0.0)],
                ["original + restrict", row.restrict_cycles, pct(row.restrict_gain)],
                ["load-transformed", row.transformed_cycles, pct(row.manual_gain)],
            ],
            title="Ablation: restrict-qualified baseline vs manual transformation",
        ),
    )
    # "The baseline code with restricts and our load-transformed code
    # perform similarly" (Section 5.1).
    assert claims.BY_ID["sec51.restrict"].holds(row)
