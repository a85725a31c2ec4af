"""The integer-table layer of the quotient targets, against permutations.

Right-multiplication rows, inverse indices and conjugation columns are read
back as permutations and compared with products composed here from image
tuples, (p * q)(x) = p(q(x)).  Index-route evaluation and canonical
representatives are compared with the permutation route, and canonical keys
with the least tuple over every stored automorphism.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcglift.autos import orbit, standard_autgens
from mcglift.perm import Permutation
from mcglift.quotients import (
    FiniteHom,
    QuotientError,
    RelatorViolation,
    canonical_key,
    canonical_rep_mod_auts,
    hom_tuples,
    target_a5,
    target_c2,
    target_c2k,
    target_psl2,
    target_s3,
)
from oracle import as_homs

TARGETS = {
    "S3": target_s3,
    "C2": target_c2,
    "A5": target_a5,
    **{f"C2^{k}": (lambda k=k: target_c2k(k)) for k in range(1, 5)},
    **{f"PSL2({p})": (lambda p=p: target_psl2(p)) for p in (5, 7, 11)},
}


def compose(p, q):
    """The image tuple of p * q, from the image tuples of p and q."""
    return tuple(p[x] for x in q)


def inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def conjugate(a, p):
    """The image tuple of a * p * a^-1."""
    return compose(compose(a, p), inverse(a))


def by_images(target):
    return {p.images: i for i, p in enumerate(target.elements)}


@pytest.mark.parametrize("name", list(TARGETS))
def test_rows_and_inverses_agree_with_permutation_products(name):
    target = TARGETS[name]()
    where = by_images(target)
    elements = target.elements
    for x, p in enumerate(elements):
        assert target.inv(x) == where[inverse(p.images)]
        row = target.right(x)
        assert len(row) == target.order
        for r, q in enumerate(elements):
            assert row[r] == where[compose(q.images, p.images)]


@pytest.mark.parametrize("name", ["S3", "C2", "A5", "PSL2(5)", "PSL2(7)"])
def test_conjugation_columns_agree_with_permutation_products(name):
    target = TARGETS[name]()
    where = by_images(target)
    reps = target.aut_reps()
    for x, p in enumerate(target.elements):
        column = target.conj_column(x)
        assert len(column) == len(reps)
        for t, a in enumerate(reps):
            assert column[t] == where[conjugate(a.images, p.images)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 659), st.integers(0, 1319))
def test_conjugation_columns_of_psl2_11(x, t):
    target = target_psl2(11)
    a, p = target.aut_reps()[t], target.elements[x]
    assert (target.elements[target.conj_column(x)[t]].images
            == conjugate(a.images, p.images))


def random_homs(target, rng, count, genus=2):
    """Seeded homs: random handles, then a last handle whose commutator
    cancels their product, drawn from the pairs grouped by commutator."""
    elements = target.elements
    by_comm = {}
    for z in elements:
        for w in elements:
            by_comm.setdefault(z * w * z.inverse() * w.inverse(), []).append(
                (z, w))
    homs = []
    for _ in range(count):
        images = [rng.choice(elements) for _ in range(2 * genus - 2)]
        product = target.identity
        for x, y in zip(images[::2], images[1::2]):
            product = product * x * y * x.inverse() * y.inverse()
        images.extend(rng.choice(by_comm[product.inverse()]))
        homs.append(FiniteHom(target, images))
    return homs


HOMS = (random_homs(target_s3(), random.Random(1), 10, genus=3)
        + random_homs(target_a5(), random.Random(2), 10)
        + random_homs(target_psl2(7), random.Random(3), 10))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, len(HOMS) - 1), st.data())
def test_evaluate_index_agrees_with_the_permutation_route(i, data):
    hom = HOMS[i]
    letters = [x for g in range(1, 2 * hom.genus + 1) for x in (g, -g)]
    word = data.draw(st.lists(st.sampled_from(letters), max_size=24))
    assert hom.target.elements[hom.evaluate_index(word)] == hom.evaluate(word)


def canonical_rep_by_permutations(hom):
    """The least conjugate of the hom over every stored automorphism, by
    permutation products."""
    best_key = best_images = None
    for t in hom.target.aut_reps():
        ti = t.inverse()
        images = tuple(t * img * ti for img in hom.images)
        key = tuple(p.images for p in images)
        if best_key is None or key < best_key:
            best_key, best_images = key, images
    return FiniteHom(hom.target, best_images)


@pytest.mark.parametrize("target", [target_a5, lambda: target_psl2(7)])
def test_canonical_rep_matches_the_permutation_version(target):
    homs = random_homs(target(), random.Random(5), 25)
    for hom in homs:
        rep = canonical_rep_mod_auts(hom)
        assert rep == canonical_rep_by_permutations(hom)
        assert rep.images == canonical_rep_by_permutations(hom).images


def least_tuple_over_every_automorphism(target, idx):
    """Brute force: the least of the images of `idx` under every stored
    automorphism, one whole tuple per automorphism."""
    return min(tuple(target.conj_column(x)[t] for x in idx)
               for t in range(len(target.aut_reps())))


def test_canonical_key_is_the_least_tuple_on_psl2_7_homs():
    target = target_psl2(7)
    for hom in random_homs(target, random.Random(11), 25):
        key = canonical_key(target, hom.idx)
        assert key == least_tuple_over_every_automorphism(target, hom.idx)
        assert canonical_rep_mod_auts(hom).idx == key


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 659), min_size=4, max_size=4))
def test_canonical_key_is_the_least_tuple_on_psl2_11(idx):
    # the key is defined on any index tuple, homomorphism or not
    target = target_psl2(11)
    idx = tuple(idx)
    assert (canonical_key(target, idx)
            == least_tuple_over_every_automorphism(target, idx))
    m, survivors = target.least_conjugate(idx[0])
    column = target.conj_column(idx[0])
    assert m == min(column)
    assert survivors == tuple(t for t in range(len(column)) if column[t] == m)


def test_sorting_by_indices_is_sorting_by_image_tuples():
    homs = as_homs(target_s3(), hom_tuples(2, target_s3())) + HOMS[10:]
    random.Random(7).shuffle(homs)
    by_idx = sorted(homs, key=lambda h: (h.target.name, h.key()))
    by_tuples = sorted(homs, key=lambda h: (
        h.target.name, tuple(p.images for p in h.images)))
    assert by_idx == by_tuples
    assert all(h.key() == h.idx for h in homs)


def test_from_indices_matches_the_permutation_constructor():
    target = target_a5()
    for hom in HOMS[10:20]:
        assert FiniteHom.from_indices(target, hom.idx) == hom
        assert FiniteHom.from_indices(target, hom.idx).images == hom.images
    # validation lives in the permutation constructor only
    x, y = target.generators
    e = target.identity
    odd = Permutation([1, 0, 2, 3, 4])
    with pytest.raises(QuotientError):
        FiniteHom(target, (e, e, e, odd))
    with pytest.raises(QuotientError):
        FiniteHom(target, (e, e, e))
    with pytest.raises(RelatorViolation):
        FiniteHom(target, (x, y, e, e))


def test_aut_reps_build_no_row_or_column():
    target = target_psl2.__wrapped__(5)  # a fresh, uncached target
    target.aut_reps()
    assert target._right == {} and target._inv == {}
    assert target._conj == {} and target._aut_pairs is None
    assert target._least == {} and target._by_images is None
    target.right(3)
    target.conj_column(4)
    assert list(target._right) == [3] and list(target._conj) == [4]
    assert target._least == {}
    target.least_conjugate(5)
    assert list(target._least) == [5] and list(target._conj) == [4, 5]


def test_orbit_raises_when_the_tables_disagree_with_permutations():
    target = target_s3.__wrapped__()  # poisoned below, so not the cached one
    x, y = target.generators
    xi, yi = target.element_index[x], target.element_index[y]
    row = list(target.right(xi))
    row[0], row[1] = row[1], row[0]
    target._right[xi] = tuple(row)
    seed = FiniteHom.from_indices(target, (xi, yi, yi, xi))
    with pytest.raises(RuntimeError, match="disagree"):
        orbit(seed, standard_autgens(2))
