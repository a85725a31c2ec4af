"""
Counting finite quotients of surface groups three ways
======================================================

How many homomorphisms does a genus-two surface group admit into a small
finite group, and how many are onto?  The enumerator walks generator
tuples directly; a classical character sum predicts the total without
enumerating anything; and inclusion-exclusion over proper subgroups
recovers the onto count from totals alone.  All three must agree.
"""

import time

from mcglift import (
    FiniteHom,
    count_homs_oracle,
    epi_tuples,
    hom_tuples,
    target_a5,
    target_c2,
    target_c2k,
    target_s3,
)

# Order two first: every generator assignment works because the target is
# abelian, so there are 2^4 = 16 homomorphisms, all but the trivial one
# surjective.  A homomorphism is listed as the tuple of its generator
# images' indices in the target's element list; `epi_tuples` keeps the
# tuples whose images generate the target.
c2 = target_c2()
homs = hom_tuples(2, c2)
epis = epi_tuples(c2, homs)
print("C2:  homs", len(homs), " epis", len(epis),
      " oracle", count_homs_oracle(2, c2))

# The symmetric group on three letters is the first nonabelian test.
s3 = target_s3()
homs_s3 = hom_tuples(2, s3)
epis_s3 = epi_tuples(s3, homs_s3)
oracle_s3 = count_homs_oracle(2, s3)
print("S3:  homs", len(homs_s3), " epis", len(epis_s3),
      " oracle", oracle_s3)

# Cross-check the onto count by inclusion-exclusion over the proper
# subgroups of the target: three of order two, one of order three, and
# the trivial one.  Homomorphisms into a subgroup of order m contribute
# the order-m count, and the trivial homomorphism is shared by all.
hom_c2 = len(homs)        # each order-2 subgroup receives this many
hom_c3 = 3 ** 4           # abelian order-3 target: free generator choice
landing_proper = 3 * (hom_c2 - 1) + (hom_c3 - 1) + 1
print("S3 epis by inclusion-exclusion:", len(homs_s3) - landing_proper)

# Elementary abelian targets have closed-form counts: (2^k)^(2g).
c22 = target_c2k(2)
print("C2xC2: homs", len(hom_tuples(2, c22)), " expected", 16 ** 2)

# The alternating group on five letters is large enough that the
# enumerator leans on its meet-in-the-middle split; the character-sum
# oracle still confirms the total instantly.
a5 = target_a5()
t0 = time.perf_counter()
homs_a5 = hom_tuples(2, a5)
dt = time.perf_counter() - t0
print(f"A5:  homs {len(homs_a5)}  oracle {count_homs_oracle(2, a5)}"
      f"  ({dt:.2f}s)")

# Wrapped as a FiniteHom, a surjection is a reusable object: it evaluates
# words, exposes its images, and hashes canonically for dedup and orbit
# work downstream.
phi = FiniteHom.from_indices(s3, epis_s3[0])
print("\nfirst S3 surjection sends generators to:",
      [img.cycle_string() for img in phi.images])
print("value on b1b2:", phi.evaluate((2, 4)).cycle_string())
relator = (1, 2, -1, -2, 3, 4, -3, -4)
print("value on the relator:", phi.evaluate(relator).cycle_string())
