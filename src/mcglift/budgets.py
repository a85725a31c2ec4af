"""Run budgets: the one place where a budget number is written.

Certifying a cover is exponential work, and a budget is what turns work that
would not finish into exit 2 or a PARTIAL certificate.  A `Budgets` carries
the three limits a run can set:

    tuples  homomorphism tuples the enumeration engine `hom_tuples` may
            examine;
    points  points of the product permutation group a forge may build;
    enum    group elements an enumeration (the hall route's scan of one
            factor and its pair closures in Q x Q, the alpha suites) may
            list.

The entry points take a `Budgets`; the lower layers take plain integers and
default to `DEFAULT`.  The two orbit-closure caps are sizing limits that no
run sets, so they are constants here rather than fields.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Budgets:
    tuples: int = 10**8
    points: int = 30000
    enum: int = 10**6


DEFAULT = Budgets()

PROFILES = {
    "desk": Budgets(tuples=10**7, points=4000, enum=10**5),
    "default": DEFAULT,
    "wide": Budgets(tuples=5 * 10**8, points=120000, enum=5 * 10**6),
}

# members an orbit closure may admit
ORBIT_CAP = 200000
# members the hall route's collection closure may admit
COLLECTION_CAP = 500000
