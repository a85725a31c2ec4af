"""Cover certificates: subdirect images, Sylow-2 or Borel-product subgroups,
and the lifting-condition checks.

The sylow-s3 route: close an epimorphism onto S3 under the automorphism
generators, form the product homomorphism into S3^k, take G = its image, H =
a 2-Sylow subgroup.  Condition (a) is N_G(H) = H; condition (b) holds because
Sylow subgroups of a common order are conjugate; the kernel intersection is
invariant because the orbit is closed.  The cover degree is [G:H] = the odd
part of |G|, and the cover genus follows from the index formula.

The hall-psl2 route: a collection of pairwise Aut(target)-inequivalent
epimorphisms onto PSL2(F_p) forces the product image to be the full product
(no proper subdirect product exists across inequivalent simple factors), H =
the product of Borel subgroups, self-normalizing factor-wise.

On the S3 route |G| = 2^r * 3^m is certified by two independent exact
linear routes over F2 and F3: `module_rank_s3` closes a few explicit
elements of the odd part under the sign action, and `structural_order_s3`
reduces the rotation exponents of the sign kernel's Schreier generators
(Reidemeister-Schreier).  Each route gives
m independent explicit elements of G, a lower bound, and rests on a
generation theorem, an upper bound.  If their (r, m) differ, the run raises
RuntimeError (exit 3) and neither is kept.

On the hall route |G| = |Q|^k by Hall's lemma, and |H| = |B|^k: members
shown pairwise Aut(Q)-inequivalent by two routes, distinct canonical keys
and distinct `order_fingerprints` (a collision falls back to a closure in
Q x Q), give all of Q^k.  Condition (a) is checked factor-wise, since
N(B x ... x B) = N(B) x ... x N(B) in Q^k, by two routes on one factor:
`normalizer_is_self_borel` shows B is the stabilizer of the one point it
fixes, and scans PSL2(F_p), on image tuples, for a normalizing element
outside B.  No product permutation is built on this route.

Neither route builds a stabilizer chain at any size: the one-factor Borel
subgroup is a set of p(p-1)/2 elements, and G and H are held as generators
with orders certified by other means.

The S3 section below owns the block form, G inside S3 x ... x S3 acting on
{0,1,2} + {3,4,5} + ...: the order, `sylow2_s3` and `normalizer_is_self_s3`
are structural there, and read G as its generators and the routes' order
(a `BlockGroup`).  Tests check the last two against a reference
Schreier-Sims chain kept with the tests.  `sylow2_s3` builds H blockwise:
the cubes of a sign basis of generators are involutions, and conjugating
each by 3-cycles of G aligns it with the earlier ones on every block they
share; r commuting involutions with independent signs certify |H| = 2^r.

Both routes share one private run record, `_Run`: it checks the genus and
the seed epimorphism, and holds the generator set, seed material, k, the
characteristic entry and the stage timings.  The shared rules live on it:
`check_subdirect` runs `check_subdirect_members` (agreement in genus and
target, every factor onto the target, the point budget) and stops the run
PARTIAL when the budget runs out, INVALID for a bad member list;
`subdirect_image` runs the same checks under the same rule and then builds
the product permutations, which only the S3 route reads, so the hall route
runs the checks alone.  `check_a` runs the route's structural check of
condition (a) (PARTIAL when the hall route's factor scan needs more than the
enum budget), and `certificate` the VALID rule and the one certificate
build, for a finished run or one its steps stopped by raising `_Stop`.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations, compress, count, repeat
from operator import add, eq, floordiv, ne, sub as minus

from .autos import certify_characteristic, orbit, standard_autgens
from .budgets import COLLECTION_CAP, DEFAULT
from .cosets import CosetTable
from .perm import (
    EnumerationBoundExceeded,
    PermError,
    Permutation,
    Sylow2Stalled,
    _gathered,
    _inverted,
    two_part,
)
from .quotients import (
    FiniteHom,
    borel_subgroup,
    canonical_rep_mod_auts,
    target_c2k,
    target_psl2,
    target_s3,
)
from .words import cover_genus

CERTIFICATE_VERSION = "1"


class ForgeError(ValueError):
    pass


class SubdirectError(ForgeError):
    pass


def check_subdirect_members(members, point_cap=DEFAULT.points):
    """The checks a product image rests on, run before anything is built:
    the member list is not empty and agrees in genus and target, every
    member maps onto the target (`is_surjective`), and the k blocks of
    the target's degree fit the point budget.  Returns the members as a
    list.  A bad list raises SubdirectError, too many points
    EnumerationBoundExceeded."""
    members = list(members)
    if not members:
        raise SubdirectError("empty member list")
    target = members[0].target
    genus2 = len(members[0].idx)
    for j, member in enumerate(members):
        if len(member.idx) != genus2 or member.target is not target:
            raise SubdirectError("members disagree in genus or target")
        if not member.is_surjective():
            raise SubdirectError(f"factor {j} is not surjective")
    k = len(members)
    deg = target.degree
    if k * deg > point_cap:
        raise EnumerationBoundExceeded(
            f"{k * deg} points exceed the point budget {point_cap}"
        )
    return members


def build_subdirect_image(members, point_cap=DEFAULT.points):
    """The product images of the surface generators under the product
    homomorphism of a member list, as permutations of k blocks of the
    target's degree, built once `check_subdirect_members` has passed.
    Only the S3 route builds them; the hall route runs the checks alone,
    since Hall's lemma gives its order and it reads no product
    permutation."""
    members = check_subdirect_members(members, point_cap)
    elements = members[0].target.elements
    return tuple(
        Permutation.from_blocks([elements[m.idx[i]].images for m in members])
        for i in range(len(members[0].idx)))


# -- S3 products in block form ----------------------------------------------


class StructuralFormError(PermError):
    """Raised when a structural path is requested on a group not in S3-block form."""


class BlockGroup(namedtuple("BlockGroup", "generators degree order")):
    """A group in S3-block form held without a stabilizer chain: its
    generators, its degree, and an order certified by other means (the
    linear routes for G, the involution checks of `sylow2_s3` for H)."""

    __slots__ = ()


def s3_block_count(group):
    """Number k of 3-point blocks if the group lies in S3 x ... x S3 acting on
    {0,1,2} + {3,4,5} + ..., else None.  Only the generators and degree of
    `group` are read, so any record that has them will do."""
    if group.degree % 3:
        return None
    blocks = tuple(map(floordiv, range(group.degree), repeat(3)))
    for g in group.generators:
        if _gathered(blocks, g.images) != blocks:
            return None
    return group.degree // 3


def _strided(images, k):
    """The images of the first k blocks as three tuples, the images of each
    block's first, second and third point, by strided slices."""
    n = 3 * k
    return images[0:n:3], images[1:n:3], images[2:n:3]


def _block_sign_vector(p, k):
    """Per-block parity as a bitmask: bit j set iff the restriction to block j
    is a transposition, that is, fixes exactly one of its three points (a
    3-cycle fixes none, the identity all three).  The fixed points of each
    block are counted in C: the images of its first, second and third
    points, read from strided slices, are compared with those points by
    `map(eq, ...)` and the three comparisons added, one byte per block;
    `_ODD` translates each count to its binary digit, reversed so block j
    is bit j."""
    n = 3 * k
    first, second, third = (map(eq, column, range(i, n, 3))
                            for i, column in enumerate(_strided(p.images, k)))
    fixed = bytes(map(add, map(add, first, second), third))
    return int(b"0" + fixed[::-1].translate(_ODD), 2)


# translation tables that turn a bytes row over {0, 1, 2}, reversed, into the
# binary digits of its 1s and of its 2s; and a row of per-block fixed-point
# counts over {0, 1, 2, 3} into the digits of the blocks with one
_ONES = bytes.maketrans(b"\0\1\2", b"010")
_TWOS = bytes.maketrans(b"\0\1\2", b"001")
_ODD = bytes.maketrans(b"\0\1\2\3", b"0100")

# the restrictions to one block that are transpositions
_TRANSPOSITIONS = frozenset({(1, 0, 2), (2, 1, 0), (0, 2, 1)})


def _independent_rows(rows, p):
    """Greedy row reduction over F_p, p = 2 or 3, in input order.

    For p = 2 each row is an int bitmask, bit c being column c, reduced by
    xor.  For p = 3 each row is a sequence of ints in {0, 1, 2}, entry c
    being column c; it is packed into two int bitplanes, the columns that
    hold 1 and the columns that hold 2, and reduced with bitwise
    operations.  Any other p, or an F3 entry outside {0, 1, 2}, raises
    ValueError.  Returns (chosen, pivots): the indices of the rows that are
    not in the span of the rows before them, and the pivot column of each,
    its first nonzero column after reduction.  Every kept row is reduced
    against the earlier kept rows, so it is zero on their pivot columns and
    a row in their span reduces to zero.
    """
    chosen = []
    if p == 2:
        basis = []  # (pivot, row)
        for i, row in enumerate(rows):
            for pivot, b in basis:
                if row >> pivot & 1:
                    row ^= b
            if row:
                basis.append(((row & -row).bit_length() - 1, row))
                chosen.append(i)
        return chosen, [pivot for pivot, _ in basis]
    if p != 3:
        raise ValueError(f"row reduction over F_{p} is not supported")
    basis = []  # (pivot, ones, twos), scaled to 1 at the pivot
    for i, row in enumerate(rows):
        data = bytes(row)[::-1]
        if data.translate(None, b"\0\1\2"):
            raise ValueError("F3 row entries must lie in {0, 1, 2}")
        ones = int(b"0" + data.translate(_ONES), 2)
        twos = int(b"0" + data.translate(_TWOS), 2)
        for pivot, b1, b2 in basis:
            # subtract f * b for the row's entry f at the pivot: -b swaps
            # the planes of b, and -2b = b
            if ones >> pivot & 1:
                c1, c2 = b2, b1
            elif twos >> pivot & 1:
                c1, c2 = b1, b2
            else:
                continue
            # F3 addition plane by plane: x + 0 = x, 1 + 1 = 2, 2 + 2 = 1,
            # 1 + 2 = 0
            zero_row, zero_c = ~(ones | twos), ~(c1 | c2)
            ones, twos = ((ones & zero_c) | (c1 & zero_row) | (twos & c2),
                          (twos & zero_c) | (c2 & zero_row) | (ones & c1))
        nonzero = ones | twos
        if not nonzero:
            continue
        pivot = (nonzero & -nonzero).bit_length() - 1
        if twos >> pivot & 1:
            ones, twos = twos, ones  # scale by 2 = -1, so the pivot is 1
        basis.append((pivot, ones, twos))
        chosen.append(i)
    return chosen, [pivot for pivot, _, _ in basis]


def sylow2_s3(group, seed=0):
    """A 2-Sylow H of G <= S3^k, as a BlockGroup of order 2^r, where 2^r is
    the 2-part of |G|; no chain of G or H is built.  `group` is a
    BlockGroup or any record with generators, degree and order, the only
    fields read; on the forge it is the product generators with the order
    of the linear routes.

    The sign map s: G -> F2^k has image V of order 2^r, and its kernel is
    the odd abelian part.  Only the sign vectors of the generators are
    read: those of a sign basis span V.  Each basis generator g gives the
    involution x = g^3 with g's sign vector.  For each involution y already
    chosen, p = y x is a 3-cycle exactly on the blocks where y and x are
    distinct transpositions and has order <= 2 elsewhere, so
    x <- p^2 x p^-2 turns x into y on those blocks and leaves it alone on
    the rest.  Every element of S3^k has order dividing 6, so p^-2 is
    taken as p^4, one more product of p^2, instead of an inverse.

    The result is then checked: each involution squares to the identity,
    the r of them commute pairwise, and their sign vectors are
    independent.  Commuting involutions span an elementary abelian group of
    order at most 2^r, and s maps it onto a space of rank r, so |H| = 2^r
    exactly.  H <= G holds by construction: its generators are cubes of
    generators of G and conjugates of those by elements of G.  A failed
    check raises Sylow2Stalled.  Raises StructuralFormError if the group is
    not in S3-block form, and RuntimeError if r, read off the generators'
    signs, disagrees with the 2-part of |G|: the two were found apart, so
    that is a breach of the dual-route invariant rather than a failed
    check.
    """
    k = s3_block_count(group)
    if k is None:
        raise StructuralFormError(
            "structural sylow2 requested on a group not in S3-block form"
        )
    gens = list(group.generators)
    random.Random(seed).shuffle(gens)

    # generators with independent sign vectors span V
    signs = [_block_sign_vector(g, k) for g in gens]
    chosen, _ = _independent_rows(signs, 2)
    r = len(chosen)
    if two_part(group.order) != 1 << r:
        raise RuntimeError(
            f"sign rank {r} disagrees with the 2-part {two_part(group.order)}"
            f" of |G| = {group.order}"
        )
    hgens = []
    for i in chosen:
        x = gens[i] * gens[i] * gens[i]
        for y in hgens:
            p = y * x
            p2 = p * p
            x = p2 * x * (p2 * p2)
        hgens.append(x)

    if not all((x * x).is_identity() for x in hgens):
        raise Sylow2Stalled("a structural involution does not square to 1")
    for i, x in enumerate(hgens):
        if any(x * y != y * x for y in hgens[:i]):
            raise Sylow2Stalled("two structural involutions do not commute")
    hsigns = [_block_sign_vector(x, k) for x in hgens]
    if len(_independent_rows(hsigns, 2)[0]) != r:
        raise Sylow2Stalled(
            "the structural involutions have dependent sign vectors")
    return BlockGroup(tuple(hgens), group.degree, 1 << r)


def normalizer_is_self_s3(group, sub):
    """Certify N_G(H) = H for H a 2-Sylow of a group G <= S3^k.  Each of
    `group` and `sub` is a BlockGroup or any record with generators,
    degree and order, the only fields read, so |G| may come from the
    linear routes.

    Checks: G's generators preserve the 3-blocks; |H| equals the 2-part of
    |G|; every H generator restricts on each block to the identity or to
    one fixed transposition X_j; every block is hit.  Why these suffice:
    the odd part A = G n A3^k is normal of odd order and H n A = 1, so
    G = H.A.  An element of A that normalizes H has [a, h] in H n A = 1 for
    every h in H, so on block j it commutes with X_j; the only even
    permutation of {0, 1, 2} commuting with a transposition is the
    identity, so a = 1 and every normalizing element lies in H.  G need not
    be onto each factor.

    The two per-block raises ("not an involution", "two distinct
    involutions") are defence in depth: for a real 2-subgroup they cannot
    fire.  Either case puts an element of order 3 into the restriction of H
    to that block, so 3 divides |H| and the order check above has already
    raised.  Only a stand-in subgroup record reaches them.

    Each H generator's images are read as per-block triples of its
    restrictions, zipped from the strided slices of its image tuple less
    each block's first point; the blocks it moves are found in C,
    `compress(count(), map(ne, triples, repeat((0, 1, 2))))`, and only
    those run the per-block checks, in block order, so an error names the
    same block as a check of every block.  A restriction other than the
    identity passes the first check when it is one of the three
    transpositions of {0, 1, 2}.
    """
    k = s3_block_count(group)
    if k is None:
        raise StructuralFormError(
            "structural normalizer check requested on a group not in S3-block form"
        )
    if sub.order != two_part(group.order):
        raise StructuralFormError(
            f"subgroup order {sub.order} is not the 2-part of {group.order}"
        )
    chosen = [None] * k
    firsts = range(0, 3 * k, 3)
    for p in sub.generators:
        triples = tuple(zip(*(map(minus, column, firsts)
                              for column in _strided(p.images, k))))
        for j in compress(count(), map(ne, triples, repeat((0, 1, 2)))):
            rest = triples[j]
            if rest not in _TRANSPOSITIONS:
                raise StructuralFormError(
                    f"subgroup restriction to block {j} is not an involution"
                )
            if chosen[j] is None:
                chosen[j] = rest
            elif chosen[j] != rest:
                raise StructuralFormError(
                    f"block {j} sees two distinct involutions; subgroup is not"
                    " inside a product of the chosen 2-Sylows"
                )
    if any(c is None for c in chosen):
        missing = [j for j, c in enumerate(chosen) if c is None]
        raise StructuralFormError(f"no subgroup generator hits blocks {missing}")
    return True


def _s3_signs(members):
    """For S3-valued members: the sign rows of the product generators, row
    i a bitmask whose bit j is the sign of generator i's image in factor j,
    and two translation tables over S3 element indices, `odd` (1 for a
    transposition, else 0) and `shift` (p(0) for a rotation p of {0, 1, 2},
    which is x -> x + p(0)).  Raises SubdirectError for other members."""
    s3 = target_s3()
    if members[0].target is not s3:
        raise SubdirectError("structural order requires S3 members")
    odd = bytes(_block_sign_vector(p, 1) for p in s3.elements).ljust(256, b"\0")
    shift = bytes(p.images[0] for p in s3.elements).ljust(256, b"\0")
    sign_rows = [sum(odd[member.idx[i]] << j
                     for j, member in enumerate(members))
                 for i in range(len(members[0].idx))]
    return sign_rows, odd, shift


def _exponent_columns(values, odd, shift, what):
    """Per member, the rotation exponents of `values`, its bytes of S3
    element indices, as a bytes column; the values are images of words in
    the sign kernel, so a transposition is a broken invariant and raises
    RuntimeError."""
    columns = []
    for column in values:
        if 1 in column.translate(odd):
            raise RuntimeError(f"{what} evaluates to a transposition")
        columns.append(column.translate(shift))
    return columns


def _schreier_values(members, table):
    """Per member, the element indices of its images of the Schreier
    generators `table.words`, as bytes.  The transversal words are
    evaluated once per member; the generator t_{x.c}^-1 * x * t_c of
    entry (c, x) is then h(t_{x.c})^-1 * h(x) * h(t_c), two row lookups
    from the inverse of h(t_{x.c})."""
    target = members[0].target
    rows = [target.right(y) for y in range(target.order)]
    inv = [target.inv(y) for y in range(target.order)]
    entries = [(c, x - 1, table.steps[x][c][0]) for c, x in table.pairs]
    for member in members:
        t = member.evaluate_indices(table.schreier_reps)
        t_rows = [rows[y] for y in t]
        t_inv = [inv[y] for y in t]
        gen_rows = [rows[y] for y in member.idx]
        yield bytes(t_rows[c][gen_rows[x][t_inv[xc]]]
                    for c, x, xc in entries)


def _module_seeds(sign_rows, basis):
    """Words that normally generate the kernel of the free group onto the
    sign image V, for a sign basis `basis` of the generators: b^2 and
    [b, c] for basis generators b, c, and g w_g^-1 for every other
    generator g, w_g being the product of the basis generators whose sign
    rows sum to g's.  Letters are 1-based, negative for inverses."""
    words = {0: ()}  # a sign row in the span of the basis -> its basis word
    for i in basis:
        words.update([(row ^ sign_rows[i], word + (i + 1,))
                      for row, word in list(words.items())])
    seeds = [(i + 1, i + 1) for i in basis]
    seeds += [(i + 1, j + 1, -(i + 1), -(j + 1))
              for n, i in enumerate(basis) for j in basis[n + 1:]]
    seeds += [(g + 1,) + tuple(-x for x in reversed(words[row]))
              for g, row in enumerate(sign_rows) if g not in basis]
    return seeds


def module_rank_s3(members):
    """|G| for the product image of S3-valued members, as 2^r * 3^m, by the
    module closure of a few explicit elements of its odd part.

    Write G <= S3^k, A = G n C3^k its odd part and V = G/A <= F2^k its sign
    image, of rank r: a sign basis b_1 ... b_r among the generators spans
    V.  The seeds `_module_seeds` lists (b_i^2, [b_i, b_j] and g w_g^-1)
    are the relators of a presentation of V on the generators, so they
    normally generate the kernel N of the free group onto V, and A, the
    image of N in G, is the normal closure of their images.  A is abelian
    and G acts on it through V: a sign vector negates the coordinates
    where it is 1.  So A, as rotation exponents in F3^k, is the
    F3[V]-submodule generated by the seeds.  Group the factors by their
    sign column, the signs of b_1 ... b_r there: V acts on each class by
    one character, and distinct columns give distinct characters.  Since
    |V| = 2^r is invertible in F3, the projection onto a class is the
    idempotent 2^-r * sum over v in V of chi(v) v, so A is the direct sum
    over the classes of the spans of the seeds' restrictions, and

        m = sum over classes of the F3-rank of the seeds' rotation
            exponents restricted to the class.

    Each restriction is an F3 combination of conjugates of a seed, an
    explicit element of A, so m is a lower bound; the generation theorem
    above makes it an upper bound.  A seed that evaluates to a
    transposition in some factor raises RuntimeError.

    Returns a dict with the order and both ranks.
    """
    members = list(members)
    sign_rows, odd, shift = _s3_signs(members)
    basis, _ = _independent_rows(sign_rows, 2)
    seeds = _module_seeds(sign_rows, basis)
    columns = _exponent_columns(
        (bytes(m.evaluate_indices(seeds)) for m in members), odd, shift,
        "module seed")
    classes = {}
    for member, column in zip(members, columns):
        sign_column = bytes(odd[member.idx[i]] for i in basis)
        classes.setdefault(sign_column, []).append(column)
    three_rank = sum(len(_independent_rows(zip(*cls), 3)[0])
                     for cls in classes.values())
    r = len(basis)
    return {"order": 2**r * 3**three_rank, "two_rank": r,
            "three_rank": three_rank}


def _sign_kernel_table(sign_rows):
    """(r, table): the F2-rank r of the sign rows and the coset table of
    the sign kernel, the kernel of the sign quotient, a homomorphism onto
    C2^r read through the pivot coordinates of an F2 basis of the sign
    rows, where basis vector b swaps the points of block b."""
    chosen, pivots = _independent_rows(sign_rows, 2)
    sign_images = [
        Permutation.from_blocks([(1, 0) if row >> pivot & 1 else (0, 1)
                                 for pivot in pivots])
        for row in sign_rows]
    # the pivot coordinates of the chosen rows form an invertible matrix, so
    # the hom is onto; were it not, the coset table would raise CosetError
    r = len(chosen)
    return r, CosetTable(FiniteHom(target_c2k(r), sign_images))


def structural_order_s3(members):
    """|G| for the product image of S3-valued members, as 2^r * 3^m, by
    Reidemeister-Schreier.

    r is the rank over F2 of the generator sign rows (G surjects onto its
    sign image).  The kernel of the sign map meets the product in a subgroup
    of the rotation part, which is elementary abelian of exponent 3; its
    dimension m is the F3-rank of the Schreier generators of the sign-kernel
    subgroup of the surface group, evaluated factor-wise: each member
    evaluates the 2^r transversal words once and forms every generator
    from them (`_schreier_values`).  The Schreier
    generators generate that subgroup (Schreier's lemma), so m is an upper
    bound, and their independent images are explicit elements of G, so it
    is a lower bound: |G| = 2^r * 3^m exactly.

    Returns a dict with the order, both ranks, and `odd_rows`: the
    rotation exponents, one bytes row per basis element over the k
    factors, of m independent explicit elements of the odd part.  Breaches
    of its invariants raise RuntimeError, or CosetError from the coset
    table of the sign quotient.
    """
    members = list(members)
    sign_rows, odd, shift = _s3_signs(members)
    r, table = _sign_kernel_table(sign_rows)

    # factor-wise rotation exponents of each Schreier generator word
    columns = _exponent_columns(_schreier_values(members, table), odd, shift,
                                "sign-kernel word")
    exponent_rows = [bytes(row) for row in zip(*columns)]
    chosen, _ = _independent_rows(exponent_rows, 3)
    return {
        "order": 2**r * 3**len(chosen),
        "two_rank": r,
        "three_rank": len(chosen),
        "odd_rows": [exponent_rows[i] for i in chosen],
    }


# -- certificates -------------------------------------------------------------

# decimal digits per str() or int() call: Python 3.11 and later refuse an
# int-string conversion past 4300 digits, and an order can be much longer
_DIGITS = 4000
_DIGITS_LIMIT = 10**_DIGITS


def decimal_str(n):
    """str(n) for a nonnegative int of any size, with no process-wide
    setting changed: a number of more than _DIGITS digits is split at a
    power of ten and each part written in turn."""
    if n < _DIGITS_LIMIT:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits, as 3/10 < log10 2
    high, low = divmod(n, 10**k)
    return decimal_str(high) + decimal_str(low).zfill(k)


def decimal_int(text):
    """int(text), the inverse of decimal_str, for a decimal string of any
    length; past _DIGITS characters it must be ASCII digits alone."""
    if not isinstance(text, str) or len(text) <= _DIGITS:
        return int(text)
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal string: {text[:20]}...")
    k = len(text) // 2
    return decimal_int(text[:-k]) * 10**k + decimal_int(text[-k:])


@dataclass
class CoverCertificate:
    """The full record of one forged cover; serializes to the JSON schema."""

    route: str
    genus_in: int
    k: int
    G_order: int
    H_order: int
    degree: int
    genus_out: int
    check_a: dict
    check_b: dict
    characteristic: dict
    K_trivial: bool
    seed_material: dict
    status: str
    failing_stage: str = ""
    order_structure: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)

    def stable_dict(self):
        """Everything except timing; byte-stable across reruns."""
        return {
            "version": CERTIFICATE_VERSION,
            "route": self.route,
            "genus_in": self.genus_in,
            "k": self.k,
            "G_order": decimal_str(self.G_order),
            "H_order": decimal_str(self.H_order),
            "degree": decimal_str(self.degree),
            "genus_out": decimal_str(self.genus_out),
            "checks": {
                "a": self.check_a,
                "b": self.check_b,
                "characteristic": self.characteristic,
            },
            "K_trivial": self.K_trivial,
            "seed_material": self.seed_material,
            "status": self.status,
            "failing_stage": self.failing_stage,
            "order_structure": self.order_structure,
        }

    def json_dict(self):
        out = self.stable_dict()
        out["timing"] = self.timing
        return out

    @property
    def valid(self):
        return self.status == "VALID"


def parse_certificate(data):
    """Rebuild a CoverCertificate from its JSON dictionary, as written by
    `stable_dict()` or `json_dict()`.  A version other than
    CERTIFICATE_VERSION or a missing field raises ForgeError; only
    `timing` may be absent, since `stable_dict()` leaves it out."""
    version = data.get("version")
    if version != CERTIFICATE_VERSION:
        raise ForgeError(f"certificate version {version!r}, expected"
                         f" {CERTIFICATE_VERSION!r}")
    try:
        return CoverCertificate(
            route=data["route"],
            genus_in=data["genus_in"],
            k=data["k"],
            G_order=decimal_int(data["G_order"]),
            H_order=decimal_int(data["H_order"]),
            degree=decimal_int(data["degree"]),
            genus_out=decimal_int(data["genus_out"]),
            check_a=data["checks"]["a"],
            check_b=data["checks"]["b"],
            characteristic=data["checks"]["characteristic"],
            K_trivial=data["K_trivial"],
            seed_material=data["seed_material"],
            status=data["status"],
            failing_stage=data["failing_stage"],
            order_structure=data["order_structure"],
            timing=data.get("timing", {}),
        )
    except KeyError as missing:
        raise ForgeError(
            f"certificate field {missing.args[0]!r} is missing") from None


def standard_epi(genus, target):
    """A deterministic epimorphism: a pair generating the target, arranged
    as (x, y, y, x) so the two commutators cancel; identity elsewhere."""
    x, y = target.generators[0], target.generators[1]
    images = [x, y, y, x] + [target.identity] * (2 * genus - 4)
    hom = FiniteHom(target, images)
    if not hom.is_surjective():
        raise ForgeError("standard generating pair is not surjective")
    return hom


class _Stop(Exception):
    """Raised by a route's steps to end the run at `stage`: the certificate
    is INVALID, or PARTIAL when a budget ran out."""

    def __init__(self, stage, detail, status="INVALID"):
        super().__init__(f"{stage}: {detail}")
        self.status = status


class _Run:
    """One forge run: the validated seed epimorphism, the automorphism
    generators, the seed material, k, the characteristic entry and the stage
    timings, with the rules both routes share: the point budget, the one
    structural check (a) at every size, and the certificate build."""

    def __init__(self, route, genus, target, seed_epi, seed, **material):
        self.start = time.time()
        if genus < 2:
            raise ForgeError(f"genus must be >= 2, got {genus}")
        if seed_epi is None:
            seed_epi = standard_epi(genus, target)
        if seed_epi.target is not target or not seed_epi.is_surjective():
            raise ForgeError(f"seed must be an epimorphism onto {target.name}")
        self.route = route
        self.genus = genus
        self.seed_epi = seed_epi
        self.gens = standard_autgens(genus)
        self.seed_material = {"seed": seed, "generator_set": "standard-v1",
                              **material}
        self.k = 0
        self.characteristic = None
        self.timing = {}

    def characterize(self, passed, **extra):
        gens = self.seed_material["generator_set"]
        self.characteristic = {"pass": bool(passed), "gens": gens, **extra}

    @contextmanager
    def stage(self, key):
        """Record the wall time of the block as timing[key], in seconds
        rounded to three places, also when the block returns or raises."""
        start = time.time()
        try:
            yield
        finally:
            self.timing[key] = round(time.time() - start, 3)

    def check_subdirect(self, members, budgets):
        """`check_subdirect_members` under the point-budget rule: more than
        `budgets.points` points stops the run PARTIAL, a member list with no
        product image stops it INVALID.  The hall route runs only this."""
        self._subdirect(check_subdirect_members, members, budgets)

    def subdirect_image(self, members, budgets):
        """The product permutations, after the checks of `check_subdirect`
        under the same rule."""
        return self._subdirect(build_subdirect_image, members, budgets)

    @staticmethod
    def _subdirect(step, members, budgets):
        try:
            return step(members, point_cap=budgets.points)
        except EnumerationBoundExceeded as e:
            raise _Stop("subdirect-image", e, status="PARTIAL") from e
        except SubdirectError as e:
            raise _Stop("subdirect-image", e) from e

    def check_a(self, structural):
        """Condition (a), N_G(H) = H, by the route's `structural()` check,
        timed as normalizer_s.  An enumeration past the enum budget inside
        it stops the run PARTIAL."""
        with self.stage("normalizer_s"):
            try:
                return {"pass": bool(structural()), "method": "structural"}
            except EnumerationBoundExceeded as e:
                raise _Stop("normalizer", e, status="PARTIAL") from e

    def certificate(self, body):
        """Run the route's steps `body()` and build the certificate: VALID
        when checks (a) and (b) and the characteristic check all pass, or,
        when `body()` raised `_Stop`, zero orders, checks not run, and the
        stage as `failing_stage`."""
        try:
            fields = body()
        except _Stop as stop:
            not_run = {"pass": False, "method": "not-run"}
            fields = dict(G_order=0, H_order=0, degree=0, genus_out=0,
                          check_a=not_run, check_b=dict(not_run),
                          status=stop.status, failing_stage=str(stop))
        else:
            fields["genus_out"] = cover_genus(self.genus, fields["degree"])
            valid = (fields["check_a"]["pass"] and fields["check_b"]["pass"]
                     and self.characteristic["pass"])
            fields["status"] = "VALID" if valid else "INVALID"
            self.timing["total_s"] = round(time.time() - self.start, 3)
        return CoverCertificate(
            route=self.route,
            genus_in=self.genus,
            k=self.k,
            characteristic=self.characteristic,
            K_trivial=fields["check_a"]["pass"],
            seed_material=self.seed_material,
            timing=self.timing,
            **fields,
        )


def forge_certificate_s3(genus, seed_epi=None, truncate_k=None, seed=0,
                         budgets=DEFAULT):
    """Run the sylow-s3 pipeline and emit a certificate.

    `truncate_k` cuts the closed orbit down to its first members — the unit
    pipeline (k=1) and other truncations are then honestly flagged by the
    characteristic check failing.
    """
    if truncate_k is not None and truncate_k < 1:
        raise ForgeError(f"truncate_k must be >= 1, got {truncate_k}")
    run = _Run("sylow-s3", genus, target_s3(), seed_epi, seed,
               truncate_k=truncate_k)
    run.seed_material["seed_images"] = [
        p.cycle_string() for p in run.seed_epi.images]
    return run.certificate(lambda: _s3_steps(run, truncate_k, seed, budgets))


def _s3_steps(run, truncate_k, seed, budgets):
    with run.stage("orbit_s"):
        rec = orbit(run.seed_epi, run.gens, mod_target_auts=False)
        members = list(rec.members)[:truncate_k]

    with run.stage("characteristic_s"):
        char = certify_characteristic(rec, members)
        failure = {} if char["pass"] else {"failure": {
            key: char["failure"][key] for key in ("direction", "member")}}
        run.characterize(char["pass"], **failure)

    run.k = k = len(members)
    with run.stage("group_s"):
        # the point budget is checked before either linear route runs
        gens = run.subdirect_image(members, budgets)
        module = module_rank_s3(members)
        structural = structural_order_s3(members)
        ranks = [(route["two_rank"], route["three_rank"])
                 for route in (module, structural)]
        if ranks[0] != ranks[1]:
            # two exact routes that disagree: a breach, and neither is kept
            raise RuntimeError(
                f"order cross-check failed: the module closure gives"
                f" (r, m) = {ranks[0]}, Reidemeister-Schreier gives"
                f" {ranks[1]}")
        r, m = ranks[0]
        order = 2**r * 3**m

    G_block = BlockGroup(gens, 3 * k, order)
    with run.stage("sylow_s"):
        try:
            H = sylow2_s3(G_block, seed=seed)
        except (Sylow2Stalled, StructuralFormError) as e:
            raise _Stop("sylow2", e) from e

    try:
        check_a = run.check_a(lambda: normalizer_is_self_s3(G_block, H))
    except StructuralFormError as e:
        raise _Stop("normalizer", e) from e

    degree = order // H.order
    if degree % 2 == 0:
        raise RuntimeError("sylow-s3 degree came out even; Sylow index broken")
    if degree != 3**m:
        raise RuntimeError("degree does not equal the 3-part of |G|")
    return dict(
        G_order=order, H_order=H.order, degree=degree, check_a=check_a,
        check_b={"pass": H.order == two_part(order),
                 "method": "sylow-conjugacy"},
        order_structure={"two_rank": r, "three_rank": m})


def collect_inequivalent_members(seed_epi, gens, want):
    """First `want` members (sorted canonical representatives) of the orbit
    closure modulo target automorphisms, stopping the closure at the end of
    the level in which `want` distinct classes are found.

    Returns (members, truncated); truncated means the closure was not run to
    completion, so the collection cannot claim to be automorphism-invariant.
    Stopping at the quota always flags truncation, even if the closure
    happened to be on its last step.
    """
    if want < 1:
        raise ForgeError(f"collection size must be >= 1, got {want}")
    rec = orbit(seed_epi, gens, mod_target_auts=True, cap=COLLECTION_CAP,
                stop_at=want)
    if rec.k < want:
        raise ForgeError(
            f"orbit closure has only {rec.k} classes, wanted {want}"
        )
    return list(rec.members[:want]), not rec.complete


def order_fingerprints(members):
    """Per member, the element orders of the images of the reduced words of
    length 1 to 3, 456 of them at genus 2, as one byte each: every element
    order of PSL2(p) is at most p, and p(p²-1)/2 elements fit the closure
    bound only for p < 256.  Automorphisms keep element orders, so
    distinct fingerprints prove two members Aut(target)-inequivalent.

    The words come level by level: level n+1 extends each word of level n
    in turn by the letters 1, -1, 2, -2, ..., skipping the inverse of its
    last letter.  A word's image is its prefix's times its last letter's,
    one lookup in the member's `letter_rows`, so a member costs one
    lookup per word.  Reads the index tables and the permutation orders of
    the target's elements, never `aut_reps()`."""
    target = members[0].target
    letters = [x for i in range(1, len(members[0].idx) + 1) for x in (i, -i)]
    # extend[w]: the letters that may follow last letter w (0 for the empty
    # word); levels[n]: the last letter of each word of length n, in order
    extend = {w: [x for x in letters if x != -w] for w in [0] + letters}
    levels = [[0]]
    for _ in range(2):
        levels.append([x for w in levels[-1] for x in extend[w]])
    orders = [e.order() for e in target.elements]
    fingerprints = []
    for member in members:
        rows = member.letter_rows()
        after = {w: [rows[x] for x in xs] for w, xs in extend.items()}
        values, images = [target.identity_index], []
        for lasts in levels:
            values = [row[v] for v, w in zip(values, lasts)
                      for row in after[w]]
            images += values
        fingerprints.append(bytes(_gathered(orders, images)))
    return fingerprints


def pair_closure_order(target, first, second, bound):
    """The order of the subgroup of Q x Q generated by the index pairs
    (first[i], second[i]): the closure of the identity under right
    multiplication by them, through the target's rows.  It stops past half
    of Q x Q, a subgroup that large being all of it; an order past `bound`
    raises EnumerationBoundExceeded."""
    n, e = target.order, target.identity_index
    gens = [(target.right(a), target.right(b))
            for a, b in set(zip(first, second))]
    seen, frontier = {e * n + e}, [(e, e)]
    while frontier and len(seen) <= min(bound, n * n // 2):
        nxt = []
        for a, b in frontier:
            for right_a, right_b in gens:
                x, y = right_a[a], right_b[b]
                if x * n + y not in seen:
                    seen.add(x * n + y)
                    nxt.append((x, y))
        frontier = nxt
    order = n * n if 2 * len(seen) > n * n else len(seen)
    if order > bound:
        raise EnumerationBoundExceeded(f"closure exceeded bound {bound}")
    return order


def _check_hall_fingerprints(members, bound):
    """Route 2 of the Hall hypothesis: members with equal fingerprints must
    generate all of Q x Q, where an Aut(Q)-equivalent pair generates the
    graph of an automorphism, of order |Q|.  An equivalent pair raises
    RuntimeError, a pair closure past `bound` EnumerationBoundExceeded."""
    target = members[0].target
    by_print = {}
    for i, fingerprint in enumerate(order_fingerprints(members)):
        by_print.setdefault(fingerprint, []).append(i)
    for same in by_print.values():
        for i, j in combinations(same, 2):
            if pair_closure_order(target, members[i].idx, members[j].idx,
                                  bound) != target.order**2:
                raise RuntimeError(
                    f"members {i} and {j} have distinct canonical keys"
                    " but an equivalent pair image in Q x Q")


def forge_certificate_hall(genus, p, seed_epi=None, collection=2, seed=0,
                           members=None, budgets=DEFAULT):
    """Run the hall-psl2 pipeline and emit a certificate.

    The collection is drawn from the orbit closure modulo Aut(target) unless
    an explicit member list is supplied (used by negative controls); its
    members must map onto PSL2(F_p), or ForgeError is raised.  A truncated
    collection cannot be certified characteristic and the certificate says
    so.
    """
    target = target_psl2(p)
    run = _Run(f"hall-psl2({p})", genus, target, seed_epi, seed,
               prime=p, collection=collection,
               explicit_members=members is not None)
    if members is not None:
        members = list(members)
        if any(m.target is not target for m in members):
            raise ForgeError(f"hall members must map onto {target.name}")
    return run.certificate(
        lambda: _hall_steps(run, p, members, collection, budgets))


def _hall_steps(run, p, members, collection, budgets):
    with run.stage("collection_s"):
        if members is None:
            members, _ = collect_inequivalent_members(
                run.seed_epi, run.gens, collection)
    run.k = k = len(members)
    # neither an explicit list nor a collection is a whole closure: the
    # quota flags every closure it stops
    run.characterize(False, note="collection-truncated")

    # the Hall hypothesis, route 1: no two members differ by a target
    # automorphism
    first = {}
    for i, member in enumerate(members):
        j = first.setdefault(canonical_rep_mod_auts(member).key(), i)
        if j != i:
            raise _Stop("hall-hypothesis",
                        f"members {j} and {i} are Aut(target)-equivalent")

    target = run.seed_epi.target
    with run.stage("group_s"):
        # the point budget and the per-factor surjectivity come first; no
        # product permutation is built, Hall's lemma giving the order
        run.check_subdirect(members, budgets)
        try:
            _check_hall_fingerprints(members, budgets.enum)
        except EnumerationBoundExceeded as e:
            raise _Stop("hall-hypothesis", e, status="PARTIAL") from e
    # Hall's lemma: pairwise inequivalent epimorphisms onto a nonabelian
    # simple group give the whole product
    order = target.order ** k

    with run.stage("subgroup_s"):
        borel = borel_subgroup(p)
    h_order = len(borel.elements) ** k

    check_a = run.check_a(
        lambda: normalizer_is_self_borel(p, borel, bound=budgets.enum))

    with run.stage("check_b_s"):
        pass_b, conjugator = _hall_check_b(p, borel)

    return dict(
        G_order=order, H_order=h_order, degree=order // h_order,
        check_a=check_a,
        check_b={"pass": bool(pass_b), "method": "explicit",
                 "conjugator": conjugator},
        order_structure={"factor_order": target.order, "factors": k})


def _borel_is_point_stabilizer(target, borel):
    """Route 1 of the hall check (a): True when B's generators fix exactly
    one point, infinity, and exactly |B| elements of Q fix it.  B then lies
    in Stab_Q(infinity) with the same order, so B = Stab_Q(infinity).  An
    element normalizing B permutes the points B fixes, here only infinity,
    so it fixes infinity and lies in B.  Reads Q's element list but
    multiplies nothing.  False only says that B was not shown to be a
    point stabilizer, which every Borel subgroup is."""
    fixed = [x for x in range(target.degree)
             if all(g.images[x] == x for g in borel.generators)]
    if len(fixed) != 1:
        return False
    (infinity,) = fixed
    stabilizer = sum(e.images[infinity] == infinity for e in target.elements)
    return stabilizer == len(borel.elements)


def _borel_normalizer_scan(target, borel, bound):
    """Route 2 of the hall check (a): True when no element of Q outside B
    conjugates both of B's generators into B.  Scans Q's element list,
    with B held as a set of image tuples; each conjugate x g x^-1 is
    composed on image tuples, (x g x^-1)(i) = x(g(x^-1(i))), and no
    permutation is built.  More than `bound` elements raise
    EnumerationBoundExceeded."""
    if target.order > bound:
        raise EnumerationBoundExceeded(
            f"group order {target.order} exceeds enumeration bound {bound}")
    inside = {b.images for b in borel.elements}
    gens = [g.images for g in borel.generators]
    for x in target.elements:
        x = x.images
        if x not in inside:
            xi = _inverted(x)
            if all(_gathered(x, _gathered(g, xi)) in inside for g in gens):
                return False
    return True


def normalizer_is_self_borel(p, borel, bound=DEFAULT.enum):
    """Condition (a) for one PSL2(F_p) factor, N_Q(B) = B, by two
    chain-free routes: B is the stabilizer of the one point it fixes, and
    a scan of Q finds no normalizing element outside B.  If they disagree
    the run raises RuntimeError (exit 3) and neither answer is kept."""
    target = target_psl2(p)
    stabilizer = _borel_is_point_stabilizer(target, borel)
    scan = _borel_normalizer_scan(target, borel, bound)
    if stabilizer != scan:
        raise RuntimeError(
            f"check (a) cross-check failed at p = {p}: the point stabilizer"
            f" route gives {stabilizer}, the normalizer scan gives {scan}")
    return scan


def _hall_check_b(p, borel):
    """Per-factor content of condition (b) on the hall route: the non-inner
    automorphism class maps the Borel subgroup to a conjugate of itself.
    Searches for an explicit conjugator; returns (ok, conjugator string)."""
    target = target_psl2(p)
    reps = target.aut_reps()
    non_inner = None
    inner = frozenset(target.elements)
    for t in reps:
        if t not in inner:
            non_inner = t
            break
    if non_inner is None:
        return False, ""
    moved = [non_inner * g * non_inner.inverse() for g in borel.generators]
    for x in target.elements:
        xi = x.inverse()
        if all(x * mg * xi in borel.elements for mg in moved):
            return True, x.cycle_string()
    return False, ""


def minimal_degree_search(genus, routes=("hall", "s3"), budget=0, seed=0,
                          budgets=DEFAULT):
    """Sweep forge jobs in a fixed order within the budget and report the
    best VALID and best flagged (structurally sound but uncertified) degrees
    found.  No claim is made beyond the searched space."""
    if budget < 0:
        raise ForgeError(f"search budget must be >= 0, got {budget}")
    jobs = []
    if "hall" in routes:
        for p in (5, 7, 11, 13):
            for n in (1, 2):
                jobs.append(("hall", {"p": p, "collection": n}))
    if "s3" in routes:
        jobs.append(("s3", {}))
    report = {"genus": genus, "budget": budget, "jobs": [],
              "best_valid": None, "best_flagged": None}
    for route, params in jobs[:budget]:
        if route == "hall":
            cert = forge_certificate_hall(
                genus, params["p"], collection=params["collection"],
                seed=seed, budgets=budgets)
        else:
            cert = forge_certificate_s3(genus, seed=seed, budgets=budgets)
        entry = {
            "route": cert.route,
            "params": params,
            "status": cert.status,
            "degree": decimal_str(cert.degree),
            "checks_pass": bool(cert.check_a["pass"] and cert.check_b["pass"]),
            "certificate": cert.stable_dict(),
        }
        report["jobs"].append(entry)
        # a VALID certificate passes both checks, so it is never flagged
        slot = "best_valid" if cert.valid else "best_flagged"
        best = report[slot]
        if cert.degree > 1 and entry["checks_pass"] and (
                best is None or cert.degree < decimal_int(best["degree"])):
            report[slot] = entry
    return report
