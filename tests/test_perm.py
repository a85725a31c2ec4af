"""Permutations and closures, the structural Sylow 2-subgroup and
self-normalizing checks of `forge`, and the reference stabilizer chain of
`oracle` they are compared against: its orders against brute-force closure,
its chain against a second copy of its algorithm."""

import itertools
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcglift import forge
from mcglift.autos import standard_autgens
from mcglift.forge import (
    BlockGroup,
    StructuralFormError,
    _block_sign_vector,
    _independent_rows,
    build_subdirect_image,
    collect_inequivalent_members,
    normalizer_is_self_s3,
    s3_block_count,
    standard_epi,
    sylow2_s3,
)
from mcglift.perm import (
    EnumerationBoundExceeded,
    PermError,
    Permutation,
    Sylow2Stalled,
    mulclose,
    two_part,
)
from mcglift.quotients import target_c2k, target_psl2
from oracle import (
    PermGroup,
    block_sign_vector_by_blocks,
    normalizer_blocks_by_loop,
    normalizer_is_self,
    subgroup_witness,
    sylow2,
)


def perm(text, degree):
    return Permutation.parse(text, degree)


def s3_product_group(k):
    """The full product of k copies of S3 in block form on 3k points."""
    gens = []
    for j in range(k):
        lo = 3 * j
        gens.append(Permutation.from_cycles(3 * k, [(lo, lo + 1)]))
        gens.append(Permutation.from_cycles(3 * k, [(lo, lo + 1, lo + 2)]))
    return PermGroup(gens, degree=3 * k)


def structural_sylow(group, seed=0):
    """`sylow2_s3`'s H as a SubgroupWitness of `group`: an unhinted chain of
    H must reach the order the involution checks certified, and the witness
    checks that every generator of H lies in G."""
    h = sylow2_s3(group, seed=seed)
    sub = PermGroup(h.generators, degree=group.degree)
    assert sub.order == h.order
    return subgroup_witness(group, sub)


def test_composition_convention():
    p = perm("(0 1)", 3)
    q = perm("(0 1 2)", 3)
    assert (p * q).images == (0, 2, 1)
    assert (q * p).images == (2, 1, 0)
    x = 0
    assert (p * q)(x) == p(q(x))


def test_permutation_validation():
    with pytest.raises(PermError):
        Permutation([0, 0, 1])
    with pytest.raises(PermError):
        Permutation([0, 3])
    with pytest.raises(PermError):
        perm("(0 1", 3)


def test_products_skip_validation_but_the_constructor_does_not():
    with pytest.raises(PermError):
        Permutation([0, 0])
    p = perm("(0 1 2)(3 4)", 5)
    q = perm("(1 4)", 5)
    for built in (p * q, q * p, p.inverse(), (p * q).inverse()):
        checked = Permutation(built.images)
        assert built == checked and hash(built) == hash(checked)
    assert p * p.inverse() == Permutation.identity(5)


@pytest.mark.parametrize("text, degree", [
    ("(5)", 3), ("(0 5)", 3), ("(3)", 3), ("(0 1)(0 1)", 2),
    ("(0 1 2)(2 3)", 4), ("(0 1 0)", 2)])
def test_parse_rejects_points_out_of_range_or_repeated(text, degree):
    with pytest.raises(PermError, match="out of range 0..%d or repeated"
                       % (degree - 1)):
        Permutation.parse(text, degree)


def test_cycle_roundtrip_and_order():
    p = perm("(0 1 2)(3 4)", 6)
    assert Permutation.parse(p.cycle_string(), 6) == p
    assert p.order() == 6
    assert p.inverse() * p == Permutation.identity(6)
    assert perm("()", 4) == Permutation.identity(4)


# -- block-diagonal permutations ---------------------------------------------
# Permutation.from_blocks against explicit offsets, and against copies of the
# block-form builders it replaced in forge and quotients.


@st.composite
def block_lists(draw):
    n = draw(st.integers(1, 5))
    count = draw(st.integers(1, 8))
    return [tuple(draw(st.permutations(range(n)))) for _ in range(count)]


@given(block_lists())
def test_from_blocks_matches_explicit_offsets(blocks):
    n = len(blocks[0])
    images = []
    for j, block in enumerate(blocks):
        for i in range(n):
            images.append(n * j + block[i])
    built = Permutation.from_blocks(blocks)
    assert built == Permutation(images)
    assert hash(built) == hash(tuple(images))
    assert built.degree == n * len(blocks)


# the rotation x -> x + e (mod 3) of {0, 1, 2}, as an image tuple, by e
ROTATIONS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def rotation_product(exponents):
    """The element of A3^k acting on block j as x -> x + e_j (mod 3)."""
    images = []
    for j, e in enumerate(exponents):
        images.extend(3 * j + (x + e) % 3 for x in range(3))
    return Permutation(images)


@given(st.lists(st.integers(0, 2), min_size=1, max_size=12))
def test_from_blocks_matches_the_rotation_product(exponents):
    assert Permutation.from_blocks(
        [ROTATIONS[e] for e in exponents]) == rotation_product(exponents)


def embed_block(p, block, block_degree, total):
    images = list(range(total))
    lo = block * block_degree
    for i in range(block_degree):
        images[lo + i] = lo + p.images[i]
    return Permutation(images)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.integers(1, 6), st.integers(0, 5))))
def test_from_blocks_matches_the_embedded_block(case):
    images, k, j = case
    j %= k
    p = Permutation(images)
    fixed = tuple(range(p.degree))
    built = Permutation.from_blocks(
        [p.images if i == j else fixed for i in range(k)])
    assert built == embed_block(p, j, p.degree, k * p.degree)


def c2k_basis(k):
    """Basis vector i of C2^k swaps 2i and 2i+1."""
    basis = []
    for i in range(k):
        images = list(range(2 * k))
        images[2 * i], images[2 * i + 1] = images[2 * i + 1], images[2 * i]
        basis.append(Permutation(images))
    return basis


def test_c2k_basis_is_built_from_blocks():
    for k in range(1, 7):
        assert list(target_c2k(k).generators) == c2k_basis(k)


@given(st.integers(1, 6).flatmap(lambda r: st.tuples(
    st.lists(st.integers(0, 9), min_size=r, max_size=r, unique=True),
    st.integers(0, 2**10 - 1))))
def test_from_blocks_matches_the_sign_image_product(case):
    pivots, row = case
    basis = c2k_basis(len(pivots))
    product = Permutation.identity(2 * len(pivots))
    for b, pivot in enumerate(pivots):
        if row >> pivot & 1:
            product = product * basis[b]
    blocks = [(1, 0) if row >> pivot & 1 else (0, 1) for pivot in pivots]
    assert Permutation.from_blocks(blocks) == product


@pytest.mark.parametrize("blocks, message", [
    ([], "no blocks"),
    ([(0, 1), (0, 1, 2)], "mixed length"),
    ([(0, 1, 2), (1, 2, 0), (0, 0, 1)], "not a permutation"),
    ([(1, 2)], "not a permutation"),
])
def test_from_blocks_rejects_bad_blocks(blocks, message):
    with pytest.raises(PermError, match=message):
        Permutation.from_blocks(blocks)


NAMED_GROUPS = [
    ("S3", ["(0 1)", "(0 1 2)"], 3, 6),
    ("C7", ["(0 1 2 3 4 5 6)"], 7, 7),
    ("D4", ["(0 1 2 3)", "(0 2)"], 4, 8),
    ("A4", ["(0 1 2)", "(1 2 3)"], 4, 12),
    ("S4", ["(0 1)", "(0 1 2 3)"], 4, 24),
    ("A5", ["(0 1 2 3 4)", "(0 1 2)"], 5, 60),
    ("S3xS3", ["(0 1)", "(0 1 2)", "(3 4)", "(3 4 5)"], 6, 36),
]


@pytest.mark.parametrize("name,gens,degree,order", NAMED_GROUPS)
def test_bsgs_order_matches_mulclose(name, gens, degree, order):
    perms = [perm(g, degree) for g in gens]
    group = PermGroup(perms, degree=degree)
    closure = mulclose(perms, degree=degree)
    assert group.order == len(closure) == order
    for e in closure:
        assert e in group
    assert set(group.elements()) == closure


def test_bsgs_against_mulclose_random_sweep():
    rng = random.Random(23)
    for _ in range(120):
        degree = rng.randint(2, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(images))
        group = PermGroup(gens, degree=degree)
        closure = mulclose(gens, degree=degree)
        assert group.order == len(closure)
        sample = rng.sample(sorted(closure), min(5, len(closure)))
        for e in sample:
            assert e in group
        images = list(range(degree))
        rng.shuffle(images)
        candidate = Permutation(images)
        assert (candidate in group) == (candidate in closure)


class ReferenceLevel:
    """The stabilizer-chain level on `Permutation` objects, with every coset
    representative rebuilt from the Schreier tree on each use: the chain
    algorithm `PermGroup` must reproduce exactly.  The tree only grows, and
    `checked[x]` counts the acting generators whose Schreier generator at x
    has sifted to the identity."""

    def __init__(self, base):
        self.base = base
        self.gens = []
        self.acting = []
        self.tree = {base: None}
        self.checked = {base: 0}

    def extend(self, g):
        # the new generator on every old point, then every acting generator
        # on each point reached, breadth first
        self.acting.append(g)
        queue = [(x, [g]) for x in self.tree]
        for x, gens in queue:
            for h in gens:
                y = h.images[x]
                if y not in self.tree:
                    self.tree[y] = (h, x)
                    self.checked[y] = 0
                    queue.append((y, self.acting))

    def transversal(self, point):
        step = self.tree[point]
        if step is None:
            return None
        g, parent = step
        result = g
        step = self.tree[parent]
        while step is not None:
            g, parent = step
            result = result * g
            step = self.tree[parent]
        return result


class ReferenceChain:
    """Deterministic Schreier-Sims on `Permutation` objects, with trees
    grown in place and each level's checks resumed where they stopped."""

    def __init__(self, generators, degree):
        self.degree = degree
        self.levels = []
        generators = [g for g in generators if not g.is_identity()]
        for g in generators:
            residue, idx = self.sift(g)
            if not residue.is_identity():
                self.place(residue, idx)
        i = len(self.levels) - 1
        while i >= 0:
            witness = self.first_schreier_residue(i)
            if witness is None:
                i -= 1
            else:
                residue, i = witness
                self.place(residue, i)

    def count(self):
        return math.prod(len(lvl.tree) for lvl in self.levels)

    def place(self, g, idx):
        if idx == len(self.levels):
            base = min(x for x in range(self.degree) if g.images[x] != x)
            self.levels.append(ReferenceLevel(base))
        self.levels[idx].gens.append(g)
        for lvl in self.levels[:idx + 1]:
            lvl.extend(g)

    def first_schreier_residue(self, i):
        lvl = self.levels[i]
        for x in lvl.tree:
            tx = lvl.transversal(x)
            while lvl.checked[x] < len(lvl.acting):
                g = lvl.acting[lvl.checked[x]]
                ty = lvl.transversal(g.images[x])
                s = g if tx is None else g * tx
                if ty is not None:
                    s = ty.inverse() * s
                if not s.is_identity():
                    residue, idx = self.sift(s, start=i + 1)
                    if not residue.is_identity():
                        return residue, idx
                lvl.checked[x] += 1
        return None

    def sift(self, p, start=0):
        for idx in range(start, len(self.levels)):
            lvl = self.levels[idx]
            y = p.images[lvl.base]
            if y == lvl.base:
                continue
            if y not in lvl.tree:
                return p, idx
            p = lvl.transversal(y).inverse() * p
        return p, len(self.levels)

    def elements(self):
        out = [Permutation.identity(self.degree)]
        for lvl in reversed(self.levels):
            ts = [lvl.transversal(x) for x in sorted(lvl.tree)]
            out = [e if t is None else t * e for t in ts for e in out]
        return out


# groups up to this order are also listed and closed by brute force
LISTED_ORDER = 5040


def tree_edges(tree, images):
    return [(y, None if step is None else (images(step[0]), step[1]))
            for y, step in tree.items()]


def assert_chain_matches_reference(gens, degree, candidate):
    group = PermGroup(gens, degree=degree)
    ref = ReferenceChain(gens, degree)
    assert [lvl.base for lvl in group._levels] == \
        [lvl.base for lvl in ref.levels]
    # each tree in the order it reached its points, edges as (generator
    # images, parent), and the verified count of every point
    assert [tree_edges(lvl.tree, lambda pair: pair[0])
            for lvl in group._levels] == \
        [tree_edges(lvl.tree, lambda g: g.images) for lvl in ref.levels]
    assert [lvl.checked for lvl in group._levels] == \
        [list(lvl.checked.values()) for lvl in ref.levels]
    # acting generators in arrival order; those placed at a level are the
    # ones that move its base point
    assert [[g for g, _ in lvl.acting] for lvl in group._levels] == \
        [[g.images for g in lvl.acting] for lvl in ref.levels]
    assert [[g for g, _ in lvl.acting if g[lvl.base] != lvl.base]
            for lvl in group._levels] == \
        [[g.images for g in lvl.gens] for lvl in ref.levels]
    for lvl in group._levels:
        for g, g_inv in lvl.acting:
            assert tuple(map(g.__getitem__, g_inv)) == group._id
    assert group.order == ref.count()
    if group.order <= LISTED_ORDER:
        assert group.elements() == ref.elements()
        closure = mulclose(gens, degree=degree)
        assert len(closure) == group.order
        assert all(e in group for e in closure)
        inside = candidate in closure
    else:
        inside = ref.sift(candidate)[0].is_identity()
    assert (candidate in group) == inside
    assert group.sift(candidate).is_identity() == inside


@st.composite
def small_generator_sets(draw):
    degree = draw(st.integers(1, 9))
    points = list(range(degree))
    gens = draw(st.lists(st.permutations(points).map(Permutation),
                         max_size=4))
    return degree, gens, draw(st.permutations(points).map(Permutation))


@settings(max_examples=150, deadline=None)
@given(small_generator_sets())
def test_chain_matches_reference_on_small_groups(case):
    degree, gens, candidate = case
    assert_chain_matches_reference(gens, degree, candidate)


@st.composite
def block_form_groups(draw):
    """Random subgroups of S3^k in block form on 3k points, and a random
    element of S3^k."""
    k = draw(st.integers(1, 4))

    def element():
        blocks = draw(st.lists(st.sampled_from(S3_IMAGES), min_size=k,
                               max_size=k))
        return Permutation([3 * j + x for j, b in enumerate(blocks)
                            for x in b])

    gens = [element() for _ in range(draw(st.integers(0, 4)))]
    return 3 * k, gens, element()


@settings(max_examples=150, deadline=None)
@given(block_form_groups())
def test_chain_matches_reference_on_block_form_groups(case):
    degree, gens, candidate = case
    assert_chain_matches_reference(gens, degree, candidate)


def assert_chain_is_a_bsgs(group, generators):
    """The chain's base and strong generators form a base and strong
    generating set, checked without the chain's own trees or sifting.

    S_i is every strong generator fixing the first i base points.  The orbit
    of base point i under S_i is rebuilt here with its own transversal; it
    must be the level's orbit, and every Schreier generator
    t_{sx}^-1 * s * t_x of it (x in the orbit, s in S_i) must sift to the
    identity through the levels below i.  By Schreier's lemma the stabilizer
    of b_i in <S_i> is then <S_{i+1}>, so the order is the product of the
    orbit lengths.  Every input generator must sift to the identity too."""
    levels = group._levels
    base = [lvl.base for lvl in levels]
    strong = [Permutation(g) for g, _ in levels[0].acting] if levels else []
    reps = []  # per level: point -> (t, t^-1) with t(b_i) = point
    for i, b in enumerate(base):
        acting = [s for s in strong if all(s(c) == c for c in base[:i])]
        ident = Permutation.identity(group.degree)
        level = {b: (ident, ident)}
        queue = [b]
        for x in queue:
            for s in acting:
                y = s(x)
                if y not in level:
                    t = s * level[x][0]
                    level[y] = (t, t.inverse())
                    queue.append(y)
        assert set(level) == set(levels[i].tree)
        reps.append((acting, level))
    assert group.order == math.prod(len(level) for _, level in reps)

    def sifts_to_identity(p, start):
        for j in range(start, len(base)):
            y = p(base[j])
            if y not in reps[j][1]:
                return False
            p = reps[j][1][y][1] * p
        return p.is_identity()

    for i, (acting, level) in enumerate(reps):
        for x, (tx, _) in level.items():
            for s in acting:
                schreier = level[s(x)][1] * s * tx
                assert sifts_to_identity(schreier, i + 1), (i, x)
    assert all(sifts_to_identity(g, 0) for g in generators)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_generator_sets(), block_form_groups()))
def test_completed_chain_is_a_bsgs(case):
    degree, gens, _ = case
    assert_chain_is_a_bsgs(PermGroup(gens, degree=degree), gens)


def test_completed_hall_chain_is_a_bsgs():
    # the 12-factor image of the hall route at p = 5: 72 points, 36 levels;
    # an unhinted chain reaches |Q|^k = 60^12, the order the forge takes
    # from Hall's lemma
    members, _ = collect_inequivalent_members(
        standard_epi(2, target_psl2(5)), standard_autgens(2), 12)
    gens = build_subdirect_image(members)
    group = PermGroup(gens)
    assert group.order == 60**12
    assert_chain_is_a_bsgs(group, gens)


def test_membership_negative():
    a5 = PermGroup([perm("(0 1 2 3 4)", 5), perm("(0 1 2)", 5)])
    assert perm("(0 1 2)", 5) in a5
    assert perm("(0 1)", 5) not in a5
    assert perm("(0 1)", 4) not in a5  # degree mismatch is just "no"


def test_trivial_group_needs_degree():
    with pytest.raises(PermError):
        PermGroup([])
    triv = PermGroup([], degree=4)
    assert triv.order == 1
    assert Permutation.identity(4) in triv


def test_elements_bound():
    group = s3_product_group(2)
    with pytest.raises(EnumerationBoundExceeded):
        group.elements(bound=10)


def test_subgroup_witness():
    s4 = PermGroup([perm("(0 1)", 4), perm("(0 1 2 3)", 4)])
    a4 = PermGroup([perm("(0 1 2)", 4), perm("(1 2 3)", 4)])
    w = subgroup_witness(s4, a4)
    assert w.index == 2
    c5 = PermGroup([perm("(0 1 2 3 4)", 5)])
    with pytest.raises(PermError):
        subgroup_witness(s4, c5)  # 5 does not divide 24


def test_subgroup_witness_rejects_foreign_generator():
    s3 = PermGroup([perm("(0 1)", 3), perm("(0 1 2)", 3)])
    odd = PermGroup([perm("(0 1)", 3)])
    assert subgroup_witness(s3, odd).index == 3
    a3 = PermGroup([perm("(0 1 2)", 4)], degree=4)
    with pytest.raises(PermError):
        subgroup_witness(s3, a3)  # degree mismatch surfaces as PermError


def test_two_part():
    assert two_part(1) == 1
    assert two_part(48) == 16
    assert two_part(36) == 4
    assert two_part(3**30) == 1


def test_s3_block_count():
    assert s3_block_count(s3_product_group(2)) == 2
    a5 = PermGroup([perm("(0 1 2 3 4)", 5), perm("(0 1 2)", 5)])
    assert s3_block_count(a5) is None
    crossing = PermGroup([perm("(0 3)", 6)], degree=6)
    assert s3_block_count(crossing) is None
    swap = PermGroup([perm("(0 3)(1 4)(2 5)", 6)], degree=6)
    assert s3_block_count(swap) is None


def test_sylow2_s3_growth():
    s3 = PermGroup([perm("(0 1)", 3), perm("(0 1 2)", 3)])
    w = sylow2(s3)
    assert w.sub.order == 2
    assert w.index == 3


def test_sylow2_s4():
    s4 = PermGroup([perm("(0 1)", 4), perm("(0 1 2 3)", 4)])
    w = sylow2(s4)
    assert w.sub.order == 8
    assert w.index == 3


@pytest.mark.parametrize("k,order,index", [(1, 2, 3), (2, 4, 9), (3, 8, 27)])
def test_sylow2_structural_s3_products(k, order, index):
    group = s3_product_group(k)
    w = structural_sylow(group)
    assert w.sub.order == order == two_part(group.order)
    assert w.index == index
    for g in w.sub.generators:
        assert g in group


def test_sylow2_structural_matches_growth():
    group = s3_product_group(2)
    ws = structural_sylow(group)
    wg = sylow2(group)
    assert ws.sub.order == wg.sub.order == 4


def test_sylow2_seeds_agree_on_order():
    group = s3_product_group(2)
    orders = {structural_sylow(group, seed=s).sub.order for s in (0, 1, 2)}
    assert orders == {4}


def test_sylow2_structural_dependent_sign_vectors():
    # Generators whose block-sign vectors are linearly dependent (the third
    # is the sum of the first two) in an order that defeats a sloppy
    # elimination: the 2-rank must still come out as 2 for every shuffle.
    def x_product(blocks):
        return Permutation.from_cycles(
            12, [(3 * j, 3 * j + 1) for j in blocks])

    gens = [
        x_product((3, 1)),
        x_product((1, 0)),
        x_product((3, 0)),
        Permutation.from_cycles(12, [(0, 1, 2)]),
    ]
    group = PermGroup(gens, degree=12)
    assert group.order == 12
    for seed in range(24):
        w = structural_sylow(group, seed=seed)
        assert w.sub.order == 4 == two_part(group.order)
        assert normalizer_is_self(w) is True


def span(rows, p, width):
    """Every F_p combination of `rows`, by brute force."""
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        out.add(tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) % p
                      for i in range(width)))
    return out


@st.composite
def matrices(draw):
    p = draw(st.sampled_from([2, 3]))
    width = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=width,
                                  max_size=width), max_size=5))
    return p, width, rows


def list_independent_rows(rows, p):
    """The list reducer for every p, as `_independent_rows` was before p = 2
    rows became bitmasks: the bitmask path must choose the same rows and
    pivots."""
    basis = []
    chosen = []
    for i, row in enumerate(rows):
        row = [x % p for x in row]
        for pivot, b in basis:
            f = row[pivot]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, b)]
        pivot = next((c for c, x in enumerate(row) if x), None)
        if pivot is not None:
            inv = pow(row[pivot], -1, p)
            basis.append((pivot, [x * inv % p for x in row]))
            chosen.append(i)
    return chosen, [pivot for pivot, _ in basis]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_independent_rows_against_brute_force_span(case):
    p, width, rows = case
    if p == 2:
        # F2 rows go in as bitmasks, bit c being column c
        masks = [sum(x << c for c, x in enumerate(row)) for row in rows]
        chosen, pivots = _independent_rows(masks, p)
    else:
        chosen, pivots = _independent_rows(rows, p)
    assert (chosen, pivots) == list_independent_rows(rows, p)
    assert len(pivots) == len(chosen) == len(set(pivots))
    spanned = span([rows[i] for i in chosen], p, width)
    # independent: the span has p^rank elements; spanning: it holds every row
    assert len(spanned) == p ** len(chosen)
    assert all(tuple(row) in spanned for row in rows)
    for i, row in enumerate(rows):
        outside = tuple(row) not in span(rows[:i], p, width)
        assert (i in chosen) == outside


def test_sylow2_structural_requires_block_form():
    a5 = PermGroup([perm("(0 1 2 3 4)", 5), perm("(0 1 2)", 5)])
    with pytest.raises(StructuralFormError):
        sylow2_s3(a5)
    # a PermError, so the CLI still maps it to exit 3
    assert issubclass(StructuralFormError, PermError)


def test_sylow2_structural_reads_generators_and_order_only():
    # a BlockGroup with the chain's order gives the same H as the chain
    group = s3_product_group(3)
    block = BlockGroup(group.generators, group.degree, group.order)
    for seed in range(3):
        assert sylow2_s3(block, seed=seed) == sylow2_s3(group, seed=seed)
    assert sylow2_s3(group).order == 8
    # a declared order whose 2-part is not the sign rank is a breach
    short = BlockGroup(group.generators, group.degree, group.order // 2)
    with pytest.raises(RuntimeError, match="sign rank 3 disagrees"):
        sylow2_s3(short)


def test_s3_block_count_at_degree_0_and_3():
    # no points gathers through `map`, three through `itemgetter`
    assert s3_block_count(BlockGroup((Permutation(()),), 0, 1)) == 0
    assert s3_block_count(BlockGroup((), 0, 1)) == 0
    s3 = BlockGroup((perm("(0 1)", 3), perm("(0 1 2)", 3)), 3, 6)
    assert s3_block_count(s3) == 1
    assert s3_block_count(BlockGroup((perm("()", 2),), 2, 1)) is None


def test_sylow2_structural_stalls_on_dependent_involution_signs(monkeypatch):
    # a sign map that reads every involution as even: the generators below
    # all have order 6, so r still comes out right, but the involutions'
    # sign vectors are then dependent and the order 2^r is not certified
    real = forge._block_sign_vector
    monkeypatch.setattr(
        forge, "_block_sign_vector",
        lambda p, k: 0 if (p * p).is_identity() else real(p, k))
    group = PermGroup([perm("(0 1)(3 4 5)", 6), perm("(0 1 2)(3 4)", 6)])
    assert group.order == 36
    with pytest.raises(Sylow2Stalled, match="dependent sign vectors"):
        sylow2_s3(group)


@pytest.mark.parametrize("rows, p", [
    ([[0, 1]], 5),
    ([0b11], 7),
    ([[0, 3]], 3),
    ([[2, -1]], 3),
])
def test_independent_rows_rejects_other_fields_and_entries(rows, p):
    with pytest.raises(ValueError):
        _independent_rows(rows, p)


def test_sylow2_diagonal_s3():
    diag = PermGroup([perm("(0 1)(3 4)", 6), perm("(0 1 2)(3 4 5)", 6)])
    assert diag.order == 6
    w = structural_sylow(diag)
    assert w.sub.order == 2


def test_normalizer_in_s3():
    s3 = PermGroup([perm("(0 1)", 3), perm("(0 1 2)", 3)])
    h2 = PermGroup([perm("(0 1)", 3)])
    h3 = PermGroup([perm("(0 1 2)", 3)])
    assert normalizer_is_self(subgroup_witness(s3, h2)) is True
    assert normalizer_is_self(subgroup_witness(s3, h3)) is False


S3_IMAGES = list(itertools.permutations(range(3)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), degree=st.sampled_from([0, 1, 2, 3, 7, 1080]))
def test_product_gathers_the_first_factor_at_the_second(data, degree):
    # fewer than two points gather through `map`, more through `itemgetter`
    a = data.draw(st.permutations(range(degree)))
    b = data.draw(st.permutations(range(degree)))
    product = Permutation(a) * Permutation(b)
    gathered = tuple(a[i] for i in b)
    assert product.images == gathered
    # the hash, taken on first use, is that of a checked permutation
    assert hash(product) == hash(Permutation(gathered))
    assert product in {Permutation(gathered)}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), k=st.integers(0, 40))
def test_block_sign_vector_matches_the_per_block_loop(data, k):
    blocks = data.draw(st.lists(st.sampled_from(S3_IMAGES),
                                min_size=k, max_size=k))
    p = Permutation.from_blocks(blocks) if k else Permutation(())
    # swaps of points, mostly of two blocks, take p out of block form
    points = st.integers(0, max(3 * k - 1, 0))
    for a, b in data.draw(st.lists(st.tuples(points, points), max_size=4)):
        if a != b:
            p = p * Permutation.from_cycles(3 * k, [(a, b)])
    for j in range(k + 1):
        assert _block_sign_vector(p, j) == block_sign_vector_by_blocks(p, j)


def random_block_element(rng, k):
    """A random element of S3^k in block form on 3k points."""
    images = []
    for j in range(k):
        images.extend(3 * j + x for x in rng.choice(S3_IMAGES))
    return Permutation(images)


def test_normalizer_structural_agrees_with_enumeration():
    group = s3_product_group(2)
    w = structural_sylow(group)
    assert normalizer_is_self(w) is True
    assert normalizer_is_self_s3(w.ambient, w.sub) is True
    # block 0 projects onto C2 only, so G is not subdirect; the structural
    # argument does not need it to be
    partial = PermGroup([perm("(0 1)", 6), perm("(3 4)", 6),
                         perm("(3 4 5)", 6)])
    assert partial.order == 12
    w = structural_sylow(partial)
    assert normalizer_is_self_s3(w.ambient, w.sub) is True
    assert normalizer_is_self(w) is True

    # random block-form subgroups of S3^k, with a 2-Sylow from either route:
    # whenever the structural check answers, it agrees with enumeration
    rng = random.Random(6)
    answered = not_subdirect = 0
    for trial in range(400):
        k = rng.randint(1, 3)
        gens = [random_block_element(rng, k) for _ in range(rng.randint(1, 3))]
        group = PermGroup(gens, degree=3 * k)
        route = rng.choice((structural_sylow, sylow2))
        w = route(group, seed=trial)
        try:
            structural = normalizer_is_self_s3(w.ambient, w.sub)
        except StructuralFormError:
            continue
        assert structural == normalizer_is_self(w)
        answered += 1
        not_subdirect += any(
            len(mulclose([Permutation([x - 3 * j for x in
                                       g.images[3 * j:3 * j + 3]])
                          for g in gens], degree=3)) != 6
            for j in range(k))
    assert answered > 100 and not_subdirect > 20


def test_sylow2_structural_random_block_groups():
    # random block-form subgroups of S3^k: for every shuffle seed the
    # structural 2-Sylow lies in G, has the 2-part of |G| as its order, and
    # is generated by pairwise commuting involutions
    rng = random.Random(10)
    clashing = 0
    for _ in range(150):
        k = rng.randint(1, 4)
        gens = [random_block_element(rng, k) for _ in range(rng.randint(1, 4))]
        group = PermGroup(gens, degree=3 * k)
        cubes = [g * g * g for g in gens]
        # raw cubes that do not commute need the conjugation step
        clashing += any(a * b != b * a for a in cubes for b in cubes)
        ident = Permutation.identity(3 * k)
        for seed in range(3):
            w = structural_sylow(group, seed=seed)
            assert w.sub.order == two_part(group.order)
            hgens = w.sub.generators
            for x in hgens:
                assert x in group
                assert x != ident and x * x == ident
            assert all(x * y == y * x for x in hgens for y in hgens)
    assert clashing > 30


def test_normalizer_diagonal_subdirect():
    diag = PermGroup([perm("(0 1)(3 4)", 6), perm("(0 1 2)(3 4 5)", 6)])
    w = structural_sylow(diag)
    assert w.sub.order == 2
    assert normalizer_is_self_s3(w.ambient, w.sub) is True
    assert normalizer_is_self(w) is True


def test_normalizer_structural_rejects_wrong_order():
    group = s3_product_group(2)
    small = PermGroup([perm("(0 1)", 6)], degree=6)
    with pytest.raises(StructuralFormError):
        normalizer_is_self_s3(group, small)


def test_normalizer_structural_rejects_a_group_not_in_block_form():
    # (0 3) joins the first two blocks
    group = PermGroup([perm("(0 3)", 6), perm("(0 1 2)", 6)])
    with pytest.raises(StructuralFormError) as e:
        normalizer_is_self_s3(group, PermGroup([perm("(0 3)", 6)]))
    assert str(e.value) == ("structural normalizer check requested on a"
                            " group not in S3-block form")


@pytest.mark.parametrize("hgens, message", [
    (["(0 1)(3 4 5)"], "subgroup restriction to block 1 is not an involution"),
    (["(0 1)(3 4)", "(0 2)"],
     "block 0 sees two distinct involutions; subgroup is not inside a"
     " product of the chosen 2-Sylows"),
])
def test_normalizer_structural_rejects_foreign_subgroup_generators(
        hgens, message):
    # either generator set makes |H| divisible by 3, so no subgroup of the
    # 2-part's order has it; a stand-in record declaring that order reaches
    # the per-block checks behind the order check
    group = s3_product_group(2)
    sub = SimpleNamespace(order=two_part(group.order),
                          generators=[perm(g, 6) for g in hgens])
    with pytest.raises(StructuralFormError) as e:
        normalizer_is_self_s3(group, sub)
    assert str(e.value) == message


@pytest.mark.parametrize("hgens, message", [
    (["(0 1)(3 4)(6 7)", "(0 1)(6 8)"],
     "block 2 sees two distinct involutions; subgroup is not inside a"
     " product of the chosen 2-Sylows"),
    (["(0 1)(3 4)(6 7 8)"],
     "subgroup restriction to block 2 is not an involution"),
    # (3 6) joins blocks 1 and 2: block 1 is the first it breaks
    (["(0 1)(3 6)"], "subgroup restriction to block 1 is not an involution"),
    (["(0 1)", "(0 1)(6 7)"], "no subgroup generator hits blocks [1]"),
])
def test_normalizer_structural_names_a_later_block(hgens, message):
    group = s3_product_group(3)
    sub = SimpleNamespace(order=two_part(group.order),
                          generators=[perm(g, 9) for g in hgens])
    with pytest.raises(StructuralFormError) as e:
        normalizer_is_self_s3(group, sub)
    assert str(e.value) == message


def test_normalizer_structural_matches_the_per_block_loop():
    # stand-in H generators, in and out of block form: the moved blocks
    # read from strided triples give the answer, or the error text, of
    # every block checked in turn
    rng = random.Random(33)
    outcomes = set()
    for _ in range(400):
        k = rng.randint(1, 5)
        group = s3_product_group(k)
        preferred = [rng.choice(S3_IMAGES[1:]) for _ in range(k)]
        hgens = []
        for _ in range(rng.randint(1, 3)):
            blocks = [rng.choice([(0, 1, 2), (0, 1, 2), preferred[j],
                                  preferred[j], rng.choice(S3_IMAGES)])
                      for j in range(k)]
            p = Permutation.from_blocks(blocks)
            if rng.random() < 0.2:
                a, b = rng.sample(range(3 * k), 2)
                p = p * Permutation.from_cycles(3 * k, [(a, b)])
            hgens.append(p)
        sub = SimpleNamespace(order=two_part(group.order), generators=hgens)
        try:
            expected = normalizer_blocks_by_loop(k, hgens)
        except StructuralFormError as e:
            expected = str(e)
        try:
            got = normalizer_is_self_s3(group, sub)
        except StructuralFormError as e:
            got = str(e)
        assert got == expected, hgens
        outcomes.add(expected if expected is True else expected.split()[0])
    assert outcomes == {True, "subgroup", "block", "no"}


def test_normalizer_enumeration_negative():
    group = s3_product_group(2)
    rotations = PermGroup([perm("(0 1 2)(3 4 5)", 6)], degree=6)
    w = subgroup_witness(group, rotations)
    assert normalizer_is_self(w) is False


def test_mulclose_bound():
    gens = [perm("(0 1)", 6), perm("(0 1 2 3 4 5)", 6)]
    with pytest.raises(EnumerationBoundExceeded):
        mulclose(gens, degree=6, bound=100)
