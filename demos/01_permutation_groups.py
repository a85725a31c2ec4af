"""
Permutation groups: orders, membership, and Sylow 2-subgroups
=============================================================

A tour of the permutation-group layer: building groups from cycle
notation, computing orders with a stabilizer chain, testing membership,
and extracting certified Sylow 2-subgroups two independent ways.
"""

from mcglift import (
    PermGroup,
    Permutation,
    normalizer_is_self,
    normalizer_is_self_s3,
    subgroup_witness,
    sylow2,
    sylow2_s3,
)

# Permutations are parsed from cycle notation over a fixed degree.  The
# product p * q acts as "q first, then p", matching function composition.
p = Permutation.parse("(0 1 2 3 4)", 5)
q = Permutation.parse("(0 1)", 5)
print("p      =", p.cycle_string())
print("q      =", q.cycle_string())
print("p * q  =", (p * q).cycle_string())
print("order of p:", p.order())

# A group is generated from a list of permutations.  Order comes from a
# base and strong generating set, so no element list is ever materialized.
a5 = PermGroup([p, q * p * q * p.inverse()], degree=5)
print("\n|A5| =", a5.order)

even = Permutation.parse("(0 1 2)", 5)
odd = Permutation.parse("(3 4)", 5)
print("contains (0 1 2):", even in a5)
print("contains (3 4):  ", odd in a5)

# The same machinery scales to products.  Three copies of the symmetric
# group on {0,1,2}, acting on disjoint triples, give a group of order 216.
blocks = []
for i in range(3):
    s = 3 * i
    blocks.append(Permutation.from_cycles(9, [(s, s + 1)]))
    blocks.append(Permutation.from_cycles(9, [(s, s + 1, s + 2)]))
cube = PermGroup(blocks, degree=9)
print("\n|S3 x S3 x S3| =", cube.order)

# A Sylow 2-subgroup has order equal to the full power of two dividing the
# group order: here 2^3 = 8 with odd index 27.  Two routes are available:
# `sylow2` grows a 2-subgroup element by element and works on any group
# small enough to list, while `sylow2_s3` exploits the S3-block form
# directly.  `sylow2` returns a witness whose order and membership relations
# were verified during construction; `sylow2_s3` builds no stabilizer chain
# and returns r commuting involutions with independent block signs, which
# certify the order 2^r by themselves.
w_growth = sylow2(cube)
h_struct = sylow2_s3(cube)
print("\nSylow-2 order (growth):    ", w_growth.sub.order)
print("Sylow-2 order (structural):", h_struct.order)
print("index:", cube.order // h_struct.order)

# The certified property downstream work relies on: this Sylow 2-subgroup
# is its own normalizer inside the ambient group.  The enumeration route
# needs a witness, with a chain for the subgroup.
w_struct = subgroup_witness(cube, PermGroup(h_struct.generators, degree=9))
print("\nself-normalizing (structural route):",
      normalizer_is_self_s3(cube, h_struct))
print("self-normalizing (enumeration route):",
      normalizer_is_self(w_struct))

# Witnesses can also wrap any explicitly-known subgroup, checking order
# divisibility and membership of every generator along the way.
v4 = PermGroup(
    [Permutation.parse("(0 1)(2 3)", 4), Permutation.parse("(0 2)(1 3)", 4)],
    degree=4,
)
s4 = PermGroup(
    [Permutation.parse("(0 1)", 4), Permutation.parse("(0 1 2 3)", 4)],
    degree=4,
)
w = subgroup_witness(s4, v4)
print("\nKlein four inside S4: order", w.sub.order, "index", w.index)
