"""
Permutation groups: orders, membership, and Sylow 2-subgroups
=============================================================

A tour of the permutation layer: building permutations from cycle
notation, listing small groups by closure, and certifying Sylow
2-subgroups and Borel subgroups self-normalizing two independent ways,
with no stabilizer chain.
"""

from mcglift import (
    Permutation,
    borel_subgroup,
    mulclose,
    normalizer_is_self_borel,
    normalizer_is_self_s3,
    sylow2_s3,
    target_psl2,
)
from mcglift.forge import BlockGroup

# Permutations are parsed from cycle notation over a fixed degree.  The
# product p * q acts as "q first, then p", matching function composition.
p = Permutation.parse("(0 1 2 3 4)", 5)
q = Permutation.parse("(0 1)", 5)
print("p      =", p.cycle_string())
print("q      =", q.cycle_string())
print("p * q  =", (p * q).cycle_string())
print("order of p:", p.order())

# A small group is listed by closing its generators under products.  Its
# order is the length of the list, and membership is set membership.
a5 = mulclose([p, q * p * q * p.inverse()])
print("\n|A5| =", len(a5))

even = Permutation.parse("(0 1 2)", 5)
odd = Permutation.parse("(3 4)", 5)
print("contains (0 1 2):", even in a5)
print("contains (3 4):  ", odd in a5)

# Three copies of the symmetric group on {0,1,2}, acting on disjoint
# triples, give a group of order 216.  The forge never lists such products:
# it holds a `BlockGroup`, the generators with an order certified by other
# means.  Here the order comes from the closure.
blocks = []
for i in range(3):
    s = 3 * i
    blocks.append(Permutation.from_cycles(9, [(s, s + 1)]))
    blocks.append(Permutation.from_cycles(9, [(s, s + 1, s + 2)]))
cube_elements = mulclose(blocks)
cube = BlockGroup(tuple(blocks), 9, len(cube_elements))
print("\n|S3 x S3 x S3| =", cube.order)

# A Sylow 2-subgroup has order equal to the full power of two dividing the
# group order: here 2^3 = 8 with odd index 27.  `sylow2_s3` works on the
# S3-block form and returns r commuting involutions with independent block
# signs, which certify the order 2^r by themselves; the closure of the
# involutions confirms it.
h = sylow2_s3(cube)
h_elements = mulclose(h.generators)
print("\nSylow-2 order (structural):", h.order)
print("Sylow-2 order (closure):   ", len(h_elements))
print("index:", cube.order // h.order)

# The certified property downstream work relies on: this Sylow 2-subgroup
# is its own normalizer inside the ambient group.  The structural route
# reads the blocks; the enumeration route scans the listed group for
# elements outside H that conjugate H's generators into H.
outside_normalizers = [
    x for x in cube_elements if x not in h_elements
    and all(x * g * x.inverse() in h_elements for g in h.generators)]
print("\nself-normalizing (structural route):",
      normalizer_is_self_s3(cube, h))
print("self-normalizing (enumeration route):", not outside_normalizers)

# The hall route's subgroup: the Borel subgroup of PSL2(F_p), the
# stabilizer of the point at infinity, with index p + 1.  It is
# self-normalizing by two routes that must agree: B is the stabilizer of
# the one point it fixes, and a scan of PSL2(F_p) finds no normalizing
# element outside B.
print()
for prime in (5, 7, 11):
    borel = borel_subgroup(prime)
    order = len(borel.elements)
    print(f"Borel subgroup of PSL2({prime}): order {order},"
          f" index {target_psl2(prime).order // order}, self-normalizing"
          f" {normalizer_is_self_borel(prime, borel)}")
