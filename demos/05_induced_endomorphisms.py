"""
Restricting surface automorphisms to the mod-2 homology cover
=============================================================

The intersection of all index-two subgroups of the genus-two surface
group is a characteristic subgroup of index sixteen: the fundamental
group of the mod-2 homology cover.  Because every automorphism preserves
it, each automorphism restricts to an endomorphism of the cover group.
This demo builds the cover's coset table, rewrites words into its
Schreier generators, restricts a Dehn twist, and runs the compatibility
checks that make the restriction trustworthy.
"""

from mcglift import (
    SurfacePresentation,
    alpha_apply,
    certified_homology_table,
    expand,
    format_word,
    parse_word,
    rewrite,
    standard_autgens,
    verify_finite_index_containment,
    verify_injectivity_mechanism,
)
from mcglift.cosets import inner_compatibility_holds

# The certified table: a degree-16 coset enumeration whose subgroup is
# pinned as the kernel intersection of all 15 surjections onto the group
# of order two, plus a closure certificate showing the automorphism
# generators permute those 15 kernels.
table, rec, cert = certified_homology_table(2)
print("cover degree:", table.d)
print("surjections certified as a closed family:", rec.k)
print("closure certificate passes:", cert["pass"])

# The same table holds the Reidemeister-Schreier generators of the cover
# subgroup: 2g*d - (d-1) = 49 of them, one per non-tree edge of the coset
# graph, built with the table.
labels = table.labels()
print("\nsubgroup generators:", table.count)
print("first few expand to:",
      {labels[i]: format_word(table.words[i]) for i in range(3)})

# A word lies in the subgroup exactly when all four exponent sums are
# even.  Such words rewrite to strings over y1..y49, and expanding the
# result recovers the original word up to free reduction: the two
# directions telescope exactly.
u = parse_word("a1b2A1B2")
print("\nu =", format_word(u), " in subgroup:", table.contains(u))
ru = rewrite(table, u)
print("rewritten:", "".join(labels[j - 1] if j > 0
                            else labels[-j - 1].upper() for j in ru))
print("expands back to u:", expand(ru, table) == u)

# Restricting an automorphism: push the transversal words through it once,
# then read one image letter per table entry through the step table.  The
# image of each Schreier generator must stay inside the subgroup -- any
# escape would raise immediately.
gens = standard_autgens(2)
ta1 = next(g for g in gens if g.name == "ta1")
alpha = alpha_apply(table, ta1.forward)
sample = alpha.as_dict()
print("\nrestriction of the a1-twist, first images:")
for label in labels[:4]:
    print(f"  {label} -> {sample[label]}")

# Restriction is functorial: restricting a composite equals composing
# the restrictions, up to the defining relation of the cover group.
pres = SurfacePresentation(2)
tb1 = next(g for g in gens if g.name == "tb1")
composite = alpha_apply(table, ta1.forward.compose(tb1.forward))
stepwise = alpha_apply(table, ta1.forward).compose(
    alpha_apply(table, tb1.forward))
agree = all(
    composite.values[i] == stepwise.values[i]
    or pres.words_equal(expand(composite.values[i], table),
                        expand(stepwise.values[i], table))
    for i in range(table.count)
)
print("\nrestriction of ta1*tb1 == restriction(ta1)*restriction(tb1):",
      agree)

# Conjugation by a subgroup element restricts to conjugation by its
# rewritten form -- the inner-automorphism compatibility that pins the
# restriction map's normalization.
print("inner compatibility for u:",
      inner_compatibility_holds(table, u, pres))

# Two more checks: the subgroup really has finite index equal to the
# table degree, and restrictions of the generating automorphisms act
# nontrivially (no collapse on the cover).
ok, d = verify_finite_index_containment(table, pres)
print("finite-index containment:", ok, "at index", d)
held = all(
    verify_injectivity_mechanism(alpha_apply(table, g.forward), g.forward,
                                 pres)
    for g in gens)
print("injectivity mechanism holds for all", len(gens),
      "generator directions:", held)
