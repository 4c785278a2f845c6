"""The names of `verify`'s checks, in the order a run takes them.

A module of its own, free of numpy, so that the CLI can offer the names as
`verify --check` choices without importing `verify`.  argparse iterates
its choices when it builds the usage line, so they must be a real tuple.
"""

CHECK_NAMES = (
    "field-axioms",
    "group-axioms",
    "gamma-map",
    "convolution",
    "hat-idempotents",
    "central-catalog",
    "matrix-units",
    "noncentral-generator",
    "component-field",
    "subgroup-pairs",
    "powers-basis",
    "abelian-images",
    "gamma-isometry",
    "central-codes",
    "example-code",
    "coefficient-claim",
    "survey",
    "nonequivalence",
)
