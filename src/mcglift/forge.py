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

Orders of large images are certified two ways: a structural 2-rank/3-rank
count (exact, via the sign quotient and the abelian odd part) feeds the BSGS
as a declared order, and the BSGS construction independently fails loudly if
the chain cannot reach it.

The S3 section below owns the block form, G inside S3 x ... x S3 acting on
{0,1,2} + {3,4,5} + ...: the order, `sylow2_s3` and `normalizer_is_self_s3`
are structural there, and tests check the last two against `perm.sylow2` and
`perm.normalizer_is_self`.  `sylow2_s3` builds H blockwise: the cubes of a
sign basis of generators are involutions, and conjugating each by 3-cycles
of G aligns it with the earlier ones on every block they share.

Both routes share one private run record, `_Run`: it checks the genus and
the seed epimorphism, and holds the generator set, seed material, k, the
characteristic entry and the stage timings.  The shared rules live on it:
`subdirect_image` applies the point budget (PARTIAL when it runs out, INVALID
for a bad member list), `check_a` the size rule for condition (a)
(enumeration while |G| fits the enum budget, else the route's structural
check, PARTIAL when the enumeration needs more than the enum budget), and
`certificate` the VALID rule and the one certificate build, for a finished
run or one its steps stopped by raising `_Stop`.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .autos import certify_characteristic, orbit, standard_autgens
from .budgets import COLLECTION_CAP, DEFAULT
from .cosets import CosetTable
from .perm import (
    EnumerationBoundExceeded,
    PermError,
    PermGroup,
    Permutation,
    Sylow2Stalled,
    normalizer_is_self,
    subgroup_witness,
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


def build_subdirect_image(members, point_cap=DEFAULT.points):
    """The product images of the surface generators under the product
    homomorphism of a member list, as permutations of k blocks of the
    target's degree.  Per-factor surjectivity is verified and the point
    count checked against the budget before any permutation is built."""
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
            f"{k * deg} points exceed the chain budget {point_cap}"
        )
    elements = target.elements
    return tuple(
        Permutation.from_blocks([elements[m.idx[i]].images for m in members])
        for i in range(genus2))


# -- S3 products in block form ----------------------------------------------


class StructuralFormError(PermError):
    """Raised when a structural path is requested on a group not in S3-block form."""


def s3_block_count(group):
    """Number k of 3-point blocks if the group lies in S3 x ... x S3 acting on
    {0,1,2} + {3,4,5} + ..., else None."""
    if group.degree % 3:
        return None
    blocks = tuple(x // 3 for x in range(group.degree))
    for g in group.generators:
        if tuple(map(blocks.__getitem__, g.images)) != blocks:
            return None
    return group.degree // 3


def _block_sign_vector(p, k):
    """Per-block parity as a bitmask: bit j set iff the restriction to block j
    is a transposition."""
    mask = 0
    for j in range(k):
        lo = 3 * j
        a, b, c = p.images[lo], p.images[lo + 1], p.images[lo + 2]
        # parity of the restriction: even iff it is a 3-cycle or identity
        fixed = (a == lo) + (b == lo + 1) + (c == lo + 2)
        if fixed == 1:
            mask |= 1 << j
    return mask


def _independent_rows(rows, p):
    """Greedy row reduction over F_p, p prime, in input order.

    For p = 2 each row is an int bitmask, bit c being column c, reduced by
    xor; for odd p it is a sequence of ints.  Returns (chosen, pivots): the
    indices of the rows that are not in the span of the rows before them,
    and the pivot column of each, its first nonzero column after reduction.
    Every kept row is reduced against the earlier kept rows, so it is zero
    on their pivot columns and a row in their span reduces to zero.
    """
    basis = []  # (pivot, row scaled to 1 at the pivot)
    chosen = []
    for i, row in enumerate(rows):
        if p == 2:
            for pivot, b in basis:
                if row >> pivot & 1:
                    row ^= b
            if not row:
                continue
            basis.append(((row & -row).bit_length() - 1, row))
        else:
            row = [x % p for x in row]
            for pivot, b in basis:
                f = row[pivot]
                if f:
                    row = [(x - f * y) % p for x, y in zip(row, b)]
            pivot = next((c for c, x in enumerate(row) if x), None)
            if pivot is None:
                continue
            inv = pow(row[pivot], -1, p)
            basis.append((pivot, [x * inv % p for x in row]))
        chosen.append(i)
    return chosen, [pivot for pivot, _ in basis]


def sylow2_s3(group, seed=0):
    """A 2-Sylow of G <= S3^k, as a SubgroupWitness: an elementary abelian
    2-group mapping isomorphically onto the sign image.

    The sign map s: G -> F2^k has image V of order 2^r with r = the 2-part
    exponent of |G|; the kernel is the odd abelian part.  Each generator g
    of a sign basis gives the involution x = g^3 with g's sign vector.  For
    each involution y already chosen, p = y x is a 3-cycle exactly on the
    blocks where y and x are distinct transpositions and has order <= 2
    elsewhere, so x <- p^2 x p^-2 turns x into y on those blocks and leaves
    it alone on the rest.  The chosen involutions then agree on every block
    they share, so they commute and span a group of order 2^r; that order
    is verified, and a shortfall raises Sylow2Stalled.  Raises
    StructuralFormError if the group is not in S3-block form, and
    RuntimeError if r, read off the generators' signs, disagrees with the
    2-part of |G|: the two were found apart, so that is a breach of the
    dual-route invariant rather than a failed check.
    """
    k = s3_block_count(group)
    if k is None:
        raise StructuralFormError(
            "structural sylow2 requested on a group not in S3-block form"
        )
    rng = random.Random(seed)
    gens = list(group.generators)
    rng.shuffle(gens)

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
            x = p * p * x * (p * p).inverse()
        hgens.append(x)
    sub = PermGroup(hgens, degree=group.degree)
    if sub.order != 1 << r:
        raise Sylow2Stalled(
            f"structural complement has order {sub.order}, expected {1 << r}"
        )
    return subgroup_witness(group, sub)


def normalizer_is_self_s3(witness):
    """Certify N_G(H) = H for H a 2-Sylow of a group G <= S3^k.

    Checks: G preserves the 3-blocks; |H| equals the 2-part of |G|; every H
    generator restricts on each block to the identity or to one fixed
    transposition X_j; every block is hit.  Why these suffice: the odd part
    A = G n A3^k is normal of odd order and H n A = 1, so G = H.A.  An
    element of A that normalizes H has [a, h] in H n A = 1 for every h in
    H, so on block j it commutes with X_j; the only even permutation of
    {0, 1, 2} commuting with a transposition is the identity, so a = 1 and
    every normalizing element lies in H.  G need not be onto each factor.

    The two per-block raises ("not an involution", "two distinct
    involutions") are defence in depth: for a real `SubgroupWitness` they
    cannot fire.  Either case puts an element of order 3 into the
    restriction of H to that block, so 3 divides |H| and the order check
    above has already raised.  Only a stand-in subgroup record reaches them.
    """
    g, h = witness.ambient, witness.sub
    k = s3_block_count(g)
    if k is None:
        raise StructuralFormError(
            "structural normalizer check requested on a group not in S3-block form"
        )
    if h.order != two_part(g.order):
        raise StructuralFormError(
            f"subgroup order {h.order} is not the 2-part of {g.order}"
        )
    chosen = [None] * k
    for p in h.generators:
        signs = _block_sign_vector(p, k)
        for j in range(k):
            lo = 3 * j
            rest = tuple(p.images[lo + i] - lo for i in range(3))
            if rest == (0, 1, 2):
                continue
            if sorted(rest) != [0, 1, 2] or not signs >> j & 1:
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


# the rotation x -> x + e (mod 3) of {0, 1, 2}, as an image tuple, by e
_ROTATIONS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def structural_order_s3(members):
    """|G| for the product image of S3-valued members, as 2^r * 3^m.

    r is the rank over F2 of the generator sign rows (G surjects onto its
    sign image).  The kernel of the sign map meets the product in a subgroup
    of the rotation part, which is elementary abelian of exponent 3; its
    dimension m is the F3-rank of the Schreier generators of the sign-kernel
    subgroup of the surface group, evaluated factor-wise.  Both counts are
    exact, so |G| = 2^r * 3^m exactly.

    Returns a dict with the order, both ranks, and permutations generating
    the odd part (images of explicit words, hence certified members of G).
    Breaches of its invariants raise RuntimeError, or CosetError from the
    coset table of the sign quotient.
    """
    members = list(members)
    s3 = target_s3()
    if members[0].target is not s3:
        raise SubdirectError("structural order requires S3 members")
    # per element index: its sign, and the shift p(0) of a rotation p of
    # {0, 1, 2}, which is x -> x + p(0)
    odd = [_block_sign_vector(p, 1) for p in s3.elements]
    shift = [p.images[0] for p in s3.elements]
    # row i, as a bitmask: bit j is the sign of generator i's image in factor j
    sign_rows = [sum(odd[member.idx[i]] << j
                     for j, member in enumerate(members))
                 for i in range(len(members[0].idx))]
    chosen, pivots = _independent_rows(sign_rows, 2)
    r = len(chosen)

    # sign quotient as a homomorphism onto C2^r via the pivot coordinates:
    # basis vector b of C2^r swaps the points of block b
    c2r = target_c2k(r)
    sign_images = [
        Permutation.from_blocks([(1, 0) if row >> pivot & 1 else (0, 1)
                                 for pivot in pivots])
        for row in sign_rows]
    # the pivot coordinates of the chosen rows form an invertible matrix, so
    # the hom is onto; were it not, the coset table would raise CosetError
    words = CosetTable(FiniteHom(c2r, sign_images)).words

    # factor-wise rotation exponents of each Schreier generator word
    columns = []
    for member in members:
        values = member.evaluate_indices(words)
        if any(odd[v] for v in values):
            raise RuntimeError("sign-kernel word evaluates to a transposition")
        columns.append([shift[v] for v in values])
    exponent_rows = list(zip(*columns))
    chosen, _ = _independent_rows(exponent_rows, 3)
    return {
        "order": 2**r * 3**len(chosen),
        "two_rank": r,
        "three_rank": len(chosen),
        "odd_basis": [
            Permutation.from_blocks([_ROTATIONS[e] for e in exponent_rows[i]])
            for i in chosen],
    }


# -- certificates -------------------------------------------------------------


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
            "G_order": str(self.G_order),
            "H_order": str(self.H_order),
            "degree": str(self.degree),
            "genus_out": str(self.genus_out),
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
            G_order=int(data["G_order"]),
            H_order=int(data["H_order"]),
            degree=int(data["degree"]),
            genus_out=int(data["genus_out"]),
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
    timings, with the rules both routes share."""

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

    def subdirect_image(self, members, budgets):
        """The point-budget rule: more than `budgets.points` points stops the
        run PARTIAL, a member list with no product image stops it INVALID."""
        try:
            return build_subdirect_image(members, point_cap=budgets.points)
        except EnumerationBoundExceeded as e:
            raise _Stop("subdirect-image", e, status="PARTIAL") from e
        except SubdirectError as e:
            raise _Stop("subdirect-image", e) from e

    def check_a(self, witness, structural, budgets):
        """The size rule for condition (a), N_G(H) = H, timed as
        normalizer_s: enumerate G while |G| fits `budgets.enum`, else run the
        route's `structural()` check.  An enumeration past `budgets.enum`,
        in either branch, stops the run PARTIAL."""
        with self.stage("normalizer_s"):
            try:
                if witness.ambient.order <= budgets.enum:
                    passed = normalizer_is_self(witness, bound=budgets.enum)
                    return {"pass": bool(passed), "method": "enumeration"}
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

    run.k = len(members)
    with run.stage("group_s"):
        # the point budget is checked before the structural order runs
        gens = run.subdirect_image(members, budgets)
        structural = structural_order_s3(members)
        try:
            # the odd basis goes first: the chain then reaches the declared
            # order after far fewer Schreier generators
            G = PermGroup(structural["odd_basis"] + list(gens),
                          degree=3 * run.k, known_order=structural["order"])
        except PermError as e:
            # the declared structural order and the chain disagree: a breach
            # of the dual-route invariant, not a mere failed check
            raise RuntimeError(f"order cross-check failed: {e}") from e
    if G.order != structural["order"]:
        raise RuntimeError(
            f"chain order {G.order} disagrees with structural order"
            f" {structural['order']}"
        )

    with run.stage("sylow_s"):
        try:
            witness = sylow2_s3(G, seed=seed)
        except (Sylow2Stalled, StructuralFormError) as e:
            raise _Stop("sylow2", e) from e

    try:
        check_a = run.check_a(
            witness, lambda: normalizer_is_self_s3(witness), budgets)
    except StructuralFormError as e:
        raise _Stop("normalizer", e) from e

    H = witness.sub
    degree = G.order // H.order
    if degree % 2 == 0:
        raise RuntimeError("sylow-s3 degree came out even; Sylow index broken")
    if degree != 3 ** structural["three_rank"]:
        raise RuntimeError("degree does not equal the 3-part of |G|")
    return dict(
        G_order=G.order, H_order=H.order, degree=degree, check_a=check_a,
        check_b={"pass": H.order == two_part(G.order),
                 "method": "sylow-conjugacy"},
        order_structure={key: structural[key]
                         for key in ("two_rank", "three_rank")})


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


def forge_certificate_hall(genus, p, seed_epi=None, collection=2, seed=0,
                           members=None, budgets=DEFAULT):
    """Run the hall-psl2 pipeline and emit a certificate.

    The collection is drawn from the orbit closure modulo Aut(target) unless
    an explicit member list is supplied (used by negative controls).  A
    truncated collection cannot be certified characteristic and the
    certificate says so.
    """
    run = _Run(f"hall-psl2({p})", genus, target_psl2(p), seed_epi, seed,
               prime=p, collection=collection,
               explicit_members=members is not None)
    return run.certificate(
        lambda: _hall_steps(run, p, members, collection, budgets))


def _hall_steps(run, p, members, collection, budgets):
    with run.stage("collection_s"):
        if members is None:
            members, truncated = collect_inequivalent_members(
                run.seed_epi, run.gens, collection)
        else:
            members, truncated = list(members), True
    run.k = k = len(members)

    passed = False
    if not truncated:
        # the quota flags every closure it stops, so an unflagged collection
        # is a whole closure of one member; rebuild its record to certify it
        rec = orbit(run.seed_epi, run.gens, mod_target_auts=True)
        passed = certify_characteristic(rec, members)["pass"]
    run.characterize(
        passed, note="collection-truncated" if truncated else "closure-complete")

    # the Hall hypothesis: no two members differ by a target automorphism
    first = {}
    for i, member in enumerate(members):
        j = first.setdefault(canonical_rep_mod_auts(member).key(), i)
        if j != i:
            raise _Stop("hall-hypothesis",
                        f"members {j} and {i} are Aut(target)-equivalent")

    target = run.seed_epi.target
    with run.stage("group_s"):
        G = PermGroup(run.subdirect_image(members, budgets))
    full = target.order ** k
    if G.order != full:
        raise RuntimeError(
            f"inequivalent simple factors gave |G| = {G.order}, not {full}"
        )

    with run.stage("subgroup_s"):
        bw = borel_subgroup(p)
        fixed = tuple(range(target.degree))
        H = PermGroup([
            Permutation.from_blocks(
                [bg.images if i == j else fixed for i in range(k)])
            for j in range(k) for bg in bw.sub.generators])
        witness = subgroup_witness(G, H)

    check_a = run.check_a(
        witness, lambda: normalizer_is_self(bw, bound=budgets.enum), budgets)

    with run.stage("check_b_s"):
        pass_b, conjugator = _hall_check_b(p, bw)

    return dict(
        G_order=G.order, H_order=H.order, degree=G.order // H.order,
        check_a=check_a,
        check_b={"pass": bool(pass_b), "method": "explicit",
                 "conjugator": conjugator},
        order_structure={"factor_order": target.order, "factors": k})


def _hall_check_b(p, bw):
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
    moved = [non_inner * g * non_inner.inverse() for g in bw.sub.generators]
    for x in target.elements:
        xi = x.inverse()
        if all(x * mg * xi in bw.sub for mg in moved):
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
            "degree": str(cert.degree),
            "checks_pass": bool(cert.check_a["pass"] and cert.check_b["pass"]),
            "certificate": cert.stable_dict(),
        }
        report["jobs"].append(entry)
        # a VALID certificate passes both checks, so it is never flagged
        slot = "best_valid" if cert.valid else "best_flagged"
        best = report[slot]
        if cert.degree > 1 and entry["checks_pass"] and (
                best is None or cert.degree < int(best["degree"])):
            report[slot] = entry
    return report
