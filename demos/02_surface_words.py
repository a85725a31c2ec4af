"""
The word problem on a closed surface of genus two
=================================================

Words in the fundamental group are tuples of signed generator indices.
This demo reduces words freely, recognizes relator consequences with the
small-cancellation routine, and certifies that a word is *not* trivial by
exhibiting a finite quotient where its image is visibly nontrivial.
"""

import random

from mcglift import (
    FiniteHom,
    SurfacePresentation,
    epi_tuples,
    format_word,
    free_reduce,
    hom_tuples,
    inverse_word,
    mod2_homology_hom,
    parse_word,
    target_s3,
)
from mcglift.words import conjugate_word, surface_relator

# Genus two: generators a1, b1, a2, b2, one defining relation.  The text
# form uses lowercase for generators and uppercase for inverses.
pres = SurfacePresentation(2)
relator = surface_relator(2)
print("relator:", format_word(relator))

w = parse_word("a1b1A1B1a2")
print("\nparsed:", w, "->", format_word(w))

# Free reduction cancels adjacent inverse pairs only.
noisy = w + (-2,) + (2,) + inverse_word(w)
print("freely reduced:", format_word(free_reduce(noisy)) or "1")

# Free reduction cannot see the defining relation.  Conjugates of the
# relator are freely reduced but trivial in the group; the Dehn reduction
# rewrites any relator majority onto its shorter complement and so kills
# them entirely.
hidden = conjugate_word(relator, parse_word("b2a1"))
print("\nhidden relator conjugate:", format_word(hidden))
print("freely reduced length:   ", len(free_reduce(hidden)))
print("Dehn reduced:            ", format_word(pres.dehn_reduce(hidden)) or "1")
print("is_trivial:              ", pres.is_trivial(hidden))

# Two words are equal exactly when their quotient is trivial.
lhs = parse_word("a1b1A1B1")
rhs = inverse_word(parse_word("a2b2A2B2"))
print("\n[a1,b1] == [a2,b2]^-1:", pres.words_equal(lhs, rhs))

# Dehn reduction shortens; it never certifies nontriviality by itself.
# For that, map to a finite group: any homomorphic image that is not the
# identity proves the word was nontrivial upstream.  The S3 epimorphisms
# come as index tuples, each image's index in the target's element list,
# and `FiniteHom.from_indices` wraps one to evaluate words.
s3 = target_s3()
epis = epi_tuples(s3, hom_tuples(2, s3))
witnesses = [mod2_homology_hom(2)] + [
    FiniteHom.from_indices(s3, idx) for idx in epis]
print("\nwitness stock:", len(witnesses), "finite-quotient homomorphisms")

rng = random.Random(7)
letters = [s * i for i in range(1, 5) for s in (1, -1)]
certified = 0
for _ in range(200):
    word = free_reduce(tuple(rng.choice(letters) for _ in range(12)))
    if not word:
        continue
    hom = next((h for h in witnesses if h.evaluate(word)
                != h.target.identity), None)
    if hom is None:
        continue  # no witness in stock; draw again
    assert not pres.is_trivial(word)
    certified += 1
print("random words certified nontrivial by a finite quotient:", certified)
