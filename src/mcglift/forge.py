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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .autos import certify_characteristic, orbit, standard_autgens
from .budgets import COLLECTION_CAP, DEFAULT
from .cosets import build_coset_table, schreier_generators
from .perm import (
    EnumerationBoundExceeded,
    PermError,
    PermGroup,
    Permutation,
    StructuralFormError,
    Sylow2Stalled,
    _block_sign_vector,
    normalizer_is_self,
    subgroup_witness,
    sylow2,
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

SKIPPED = "skipped"

CERTIFICATE_VERSION = "1"


class ForgeError(ValueError):
    pass


class SubdirectError(ForgeError):
    pass


@dataclass(frozen=True)
class SubdirectImage:
    """The image of the product homomorphism inside the k-fold product."""

    k: int
    factor_homs: tuple
    block_degree: int
    product_gens: tuple
    G: PermGroup


def _embed_block(p, block, block_degree, total):
    images = list(range(total))
    lo = block * block_degree
    for i in range(block_degree):
        images[lo + i] = lo + p.images[i]
    return Permutation(images)


def product_images(members):
    """The 2g product permutations of a member list, on k*deg points."""
    k = len(members)
    deg = members[0].target.degree
    total = k * deg
    gens = []
    for i in range(len(members[0].images)):
        images = []
        for j, member in enumerate(members):
            images.extend(deg * j + x for x in member.images[i].images)
        gens.append(Permutation(images))
    return gens, deg, total


def build_subdirect_image(members, known_order=None, extra_gens=None,
                          point_cap=DEFAULT.points):
    """Group generated by the product images, with per-factor surjectivity
    verified.  `extra_gens` may supply already-proven elements of the image
    (products of images of explicit words) to speed up the chain build."""
    members = list(members)
    if not members:
        raise SubdirectError("empty member list")
    genus2 = len(members[0].images)
    for j, member in enumerate(members):
        if len(member.images) != genus2 or member.target is not members[0].target:
            raise SubdirectError("members disagree in genus or target")
        if not member.is_surjective():
            raise SubdirectError(f"factor {j} is not surjective")
    gens, deg, total = product_images(members)
    if total > point_cap:
        raise EnumerationBoundExceeded(
            f"{total} points exceed the chain budget {point_cap}"
        )
    all_gens = gens + list(extra_gens or ())
    G = PermGroup(all_gens, degree=total, known_order=known_order)
    return SubdirectImage(
        k=len(members),
        factor_homs=tuple(members),
        block_degree=deg,
        product_gens=tuple(gens),
        G=G,
    )


# -- structural order for S3 products ----------------------------------------


def _a3_exponent(p):
    """Exponent e with p = (0 1 2)^e, for p in the rotation subgroup."""
    return p.images[0]


def structural_order_s3(members):
    """|G| for the product image of S3-valued members, as 2^r * 3^m.

    r is the rank over F2 of the generator sign vectors (G surjects onto its
    sign image).  The kernel of the sign map meets the product in a subgroup
    of the rotation part, which is elementary abelian of exponent 3; its
    dimension m is the F3-rank of the Schreier generators of the sign-kernel
    subgroup of the surface group, evaluated factor-wise.  Both counts are
    exact, so |G| = 2^r * 3^m exactly.

    Returns a dict with the order, both ranks, the sign-pivot factors, and
    permutations generating the odd part (images of explicit words, hence
    certified members of G).  Breaches of its invariants raise RuntimeError.
    """
    members = list(members)
    k = len(members)
    if members[0].target is not target_s3():
        raise SubdirectError("structural order requires S3 members")
    prod_gens, _, total = product_images(members)
    sign_vectors = [_block_sign_vector(g, k) for g in prod_gens]

    # F2 elimination, remembering pivot columns
    basis = []  # (pivot, mask)
    for mask in sign_vectors:
        m = mask
        for pivot, bmask in basis:
            if m >> pivot & 1:
                m ^= bmask
        if m:
            basis.append((m.bit_length() - 1, m))
    r = len(basis)
    pivots = sorted(p for p, _ in basis)

    # sign quotient as a homomorphism onto C2^r via the pivot coordinates
    c2r = target_c2k(r)
    sign_images = []
    for mask in sign_vectors:
        perm = Permutation.identity(2 * r)
        for b, pivot in enumerate(pivots):
            if mask >> pivot & 1:
                perm = perm * c2r.generators[b]
        sign_images.append(perm)
    sign_hom = FiniteHom(c2r, sign_images)
    if not sign_hom.is_surjective():
        raise RuntimeError("sign quotient unexpectedly not surjective")
    table = build_coset_table(sign_hom)
    rs = schreier_generators(table)

    # factor-wise rotation exponents of each Schreier generator word
    rows = []
    words = []
    for w in rs.words:
        row = []
        for member in members:
            p = member.evaluate(w)
            if _block_sign_vector(p, 1):
                raise RuntimeError(
                    "sign-kernel word evaluates to a transposition"
                )
            row.append(_a3_exponent(p))
        rows.append(row)
        words.append(w)

    # F3 elimination, remembering which original rows are pivots
    m_rank = 0
    pivot_rows = []
    mat = [list(row) for row in rows]
    row_origin = list(range(len(mat)))
    col = 0
    rix = 0
    while rix < len(mat) and col < k:
        sel = None
        for i in range(rix, len(mat)):
            if mat[i][col] % 3:
                sel = i
                break
        if sel is None:
            col += 1
            continue
        mat[rix], mat[sel] = mat[sel], mat[rix]
        row_origin[rix], row_origin[sel] = row_origin[sel], row_origin[rix]
        inv = 1 if mat[rix][col] % 3 == 1 else 2
        mat[rix] = [(x * inv) % 3 for x in mat[rix]]
        for i in range(len(mat)):
            if i != rix and mat[i][col] % 3:
                f = mat[i][col] % 3
                mat[i] = [(a - f * b) % 3 for a, b in zip(mat[i], mat[rix])]
        pivot_rows.append(row_origin[rix])
        m_rank += 1
        rix += 1
        col += 1

    odd_basis = []
    for i in pivot_rows:
        perm = Permutation.identity(total)
        for letter in words[i]:
            p = (prod_gens[letter - 1] if letter > 0
                 else prod_gens[-letter - 1].inverse())
            perm = perm * p
        odd_basis.append(perm)
    return {
        "order": (2**r) * (3**m_rank),
        "two_rank": r,
        "three_rank": m_rank,
        "sign_pivots": pivots,
        "odd_basis": odd_basis,
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
    """Rebuild a CoverCertificate from its JSON dictionary."""
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
        failing_stage=data.get("failing_stage", ""),
        order_structure=data.get("order_structure", {}),
        timing=data.get("timing", {}),
    )


def standard_epi(genus, target):
    """A deterministic epimorphism: a pair generating the target, arranged
    as (x, y, y, x) so the two commutators cancel; identity elsewhere."""
    x, y = target.generators[0], target.generators[1]
    images = [x, y, y, x] + [target.identity] * (2 * genus - 4)
    hom = FiniteHom(target, images)
    if not hom.is_surjective():
        raise ForgeError("standard generating pair is not surjective")
    return hom


def _invalid_certificate(route, genus, k, stage, detail, seed_material,
                         characteristic=None):
    return CoverCertificate(
        route=route,
        genus_in=genus,
        k=k,
        G_order=0,
        H_order=0,
        degree=0,
        genus_out=0,
        check_a={"pass": False, "method": "not-run"},
        check_b={"pass": False, "method": "not-run"},
        characteristic=characteristic or {"pass": False, "gens": ""},
        K_trivial=False,
        seed_material=seed_material,
        status="INVALID",
        failing_stage=f"{stage}: {detail}",
    )


def forge_certificate_s3(genus, seed_epi=None, truncate_k=None, seed=0,
                         budgets=DEFAULT):
    """Run the sylow-s3 pipeline and emit a certificate.

    `truncate_k` cuts the closed orbit down to its first members — the unit
    pipeline (k=1) and other truncations are then honestly flagged by the
    characteristic check failing.
    """
    t_start = time.time()
    if genus < 2:
        raise ForgeError(f"genus must be >= 2, got {genus}")
    if truncate_k is not None and truncate_k < 1:
        raise ForgeError(f"truncate_k must be >= 1, got {truncate_k}")
    target = target_s3()
    if seed_epi is None:
        seed_epi = standard_epi(genus, target)
    if seed_epi.target is not target or not seed_epi.is_surjective():
        raise ForgeError("seed must be an epimorphism onto S3")
    gens = standard_autgens(genus)
    gen_label = "standard-v1"
    seed_material = {
        "seed": seed,
        "generator_set": gen_label,
        "seed_images": [p.cycle_string() for p in seed_epi.images],
        "truncate_k": truncate_k,
    }
    timing = {}

    t0 = time.time()
    rec = orbit(seed_epi, gens, mod_target_auts=False)
    members = list(rec.members)
    if truncate_k is not None:
        members = members[:truncate_k]
    timing["orbit_s"] = round(time.time() - t0, 3)

    t0 = time.time()
    char = certify_characteristic(rec, members)
    char_entry = {
        "pass": bool(char["pass"]),
        "gens": gen_label,
    }
    if not char["pass"]:
        char_entry["failure"] = {
            "direction": char["failure"]["direction"],
            "member": char["failure"]["member"],
        }
    timing["characteristic_s"] = round(time.time() - t0, 3)

    k = len(members)
    try:
        t0 = time.time()
        structural = structural_order_s3(members)
        sub = build_subdirect_image(
            members,
            known_order=structural["order"],
            extra_gens=structural["odd_basis"],
            point_cap=budgets.points,
        )
        timing["group_s"] = round(time.time() - t0, 3)
    except EnumerationBoundExceeded as e:
        cert = _invalid_certificate("sylow-s3", genus, k, "subdirect-image",
                                    str(e), seed_material, char_entry)
        cert.status = "PARTIAL"
        cert.timing = timing
        return cert
    except SubdirectError as e:
        return _invalid_certificate("sylow-s3", genus, k, "subdirect-image",
                                    str(e), seed_material, char_entry)
    except PermError as e:
        # the declared structural order and the chain disagree: a breach of
        # the dual-route invariant, not a mere failed check
        raise RuntimeError(f"order cross-check failed: {e}") from e
    G = sub.G
    if G.order != structural["order"]:
        raise RuntimeError(
            f"chain order {G.order} disagrees with structural order"
            f" {structural['order']}"
        )

    try:
        t0 = time.time()
        witness = sylow2(G, seed=seed, method="structural")
        timing["sylow_s"] = round(time.time() - t0, 3)
    except (Sylow2Stalled, StructuralFormError) as e:
        return _invalid_certificate("sylow-s3", genus, k, "sylow2", str(e),
                                    seed_material, char_entry)

    t0 = time.time()
    method_a = "enumeration" if G.order <= budgets.enum else "structural"
    try:
        pass_a = normalizer_is_self(witness, bound=budgets.enum,
                                    method=method_a)
    except (StructuralFormError, EnumerationBoundExceeded) as e:
        return _invalid_certificate("sylow-s3", genus, k, "normalizer",
                                    str(e), seed_material, char_entry)
    timing["normalizer_s"] = round(time.time() - t0, 3)

    pass_b = witness.sub.order == two_part(G.order)
    degree = G.order // witness.sub.order
    if degree % 2 == 0:
        raise RuntimeError("sylow-s3 degree came out even; Sylow index broken")
    if degree != 3 ** structural["three_rank"]:
        raise RuntimeError("degree does not equal the 3-part of |G|")
    gout = cover_genus(genus, degree)

    status = "VALID" if (pass_a and pass_b and char_entry["pass"]) else "INVALID"
    cert = CoverCertificate(
        route="sylow-s3",
        genus_in=genus,
        k=k,
        G_order=G.order,
        H_order=witness.sub.order,
        degree=degree,
        genus_out=gout,
        check_a={"pass": bool(pass_a), "method": method_a},
        check_b={"pass": bool(pass_b), "method": "sylow-conjugacy"},
        characteristic=char_entry,
        K_trivial=bool(pass_a),
        seed_material=seed_material,
        status=status,
        order_structure={
            "two_rank": structural["two_rank"],
            "three_rank": structural["three_rank"],
        },
        timing=timing,
    )
    cert.timing["total_s"] = round(time.time() - t_start, 3)
    return cert


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


def _pairwise_inequivalent(members):
    """Hall hypothesis: no two members differ by a target automorphism.
    Returns the offending pair or None."""
    keys = {}
    for i, member in enumerate(members):
        key = canonical_rep_mod_auts(member).key()
        if key in keys:
            return (keys[key], i)
        keys[key] = i
    return None


def forge_certificate_hall(genus, p, seed_epi=None, collection=2, seed=0,
                           members=None, budgets=DEFAULT):
    """Run the hall-psl2 pipeline and emit a certificate.

    The collection is drawn from the orbit closure modulo Aut(target) unless
    an explicit member list is supplied (used by negative controls).  A
    truncated collection cannot be certified characteristic and the
    certificate says so.
    """
    t_start = time.time()
    if genus < 2:
        raise ForgeError(f"genus must be >= 2, got {genus}")
    target = target_psl2(p)
    if seed_epi is None:
        seed_epi = standard_epi(genus, target)
    if seed_epi.target is not target or not seed_epi.is_surjective():
        raise ForgeError(f"seed must be an epimorphism onto PSL2({p})")
    gens = standard_autgens(genus)
    gen_label = "standard-v1"
    seed_material = {
        "seed": seed,
        "generator_set": gen_label,
        "prime": p,
        "collection": collection,
        "explicit_members": members is not None,
    }
    timing = {}

    t0 = time.time()
    if members is None:
        members, truncated = collect_inequivalent_members(
            seed_epi, gens, collection)
    else:
        members = list(members)
        truncated = True
    k = len(members)
    timing["collection_s"] = round(time.time() - t0, 3)

    char_entry = {
        "pass": False,
        "gens": gen_label,
        "note": "collection-truncated" if truncated else "closure-complete",
    }
    if not truncated:
        # the quota flags every closure it stops, so an unflagged collection
        # is a whole closure of one member; rebuild its record to certify it
        rec = orbit(seed_epi, gens, mod_target_auts=True)
        char = certify_characteristic(rec, members)
        char_entry["pass"] = bool(char["pass"])

    clash = _pairwise_inequivalent(members)
    if clash is not None:
        cert = _invalid_certificate(
            f"hall-psl2({p})", genus, k, "hall-hypothesis",
            f"members {clash[0]} and {clash[1]} are Aut(target)-equivalent",
            seed_material, char_entry)
        cert.timing = timing
        return cert

    t0 = time.time()
    try:
        sub = build_subdirect_image(members, point_cap=budgets.points)
    except (SubdirectError, EnumerationBoundExceeded) as e:
        return _invalid_certificate(f"hall-psl2({p})", genus, k,
                                    "subdirect-image", str(e),
                                    seed_material, char_entry)
    G = sub.G
    timing["group_s"] = round(time.time() - t0, 3)
    full = target.order ** k
    if G.order != full:
        raise RuntimeError(
            f"inequivalent simple factors gave |G| = {G.order}, not {full}"
        )

    t0 = time.time()
    bw = borel_subgroup(p)
    hgens = []
    for j in range(k):
        for bg in bw.sub.generators:
            hgens.append(_embed_block(bg, j, target.degree, k * target.degree))
    H = PermGroup(hgens, degree=k * target.degree)
    witness = subgroup_witness(G, H)
    timing["subgroup_s"] = round(time.time() - t0, 3)

    t0 = time.time()
    if G.order <= budgets.enum:
        method_a = "enumeration"
        pass_a = normalizer_is_self(witness, bound=budgets.enum,
                                    method="enumeration")
    else:
        method_a = "structural"
        pass_a = normalizer_is_self(bw, bound=budgets.enum,
                                    method="enumeration")
    timing["normalizer_s"] = round(time.time() - t0, 3)

    t0 = time.time()
    pass_b, conj_witness = _hall_check_b(p, bw)
    timing["check_b_s"] = round(time.time() - t0, 3)

    degree = G.order // H.order
    gout = cover_genus(genus, degree)
    status = "VALID" if (pass_a and pass_b and char_entry["pass"]) else "INVALID"
    cert = CoverCertificate(
        route=f"hall-psl2({p})",
        genus_in=genus,
        k=k,
        G_order=G.order,
        H_order=H.order,
        degree=degree,
        genus_out=gout,
        check_a={"pass": bool(pass_a), "method": method_a},
        check_b={"pass": bool(pass_b), "method": "explicit",
                 "conjugator": conj_witness},
        characteristic=char_entry,
        K_trivial=bool(pass_a),
        seed_material=seed_material,
        status=status,
        order_structure={"factor_order": target.order, "factors": k},
        timing=timing,
    )
    cert.timing["total_s"] = round(time.time() - t_start, 3)
    return cert


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


def gamma_set_isomorphic(table1, table2, bound=4096):
    """Whether two transitive generator actions are isomorphic as actions,
    by backtracking over the image of the base point.  Returns True, False,
    or SKIPPED when the degree exceeds the bound."""
    if table1.genus != table2.genus:
        return False
    if table1.d != table2.d:
        return False
    if table1.d > bound:
        return SKIPPED
    letters = []
    for x in range(1, 2 * table1.genus + 1):
        letters.extend((x, -x))
    for b in range(table2.d):
        fwd = {0: b}
        back = {b: 0}
        queue = [0]
        ok = True
        while queue and ok:
            x = queue.pop()
            y = fwd[x]
            for letter in letters:
                xi = table1.apply_letter(letter, x)
                yi = table2.apply_letter(letter, y)
                if xi in fwd:
                    if fwd[xi] != yi:
                        ok = False
                        break
                elif yi in back:
                    ok = False
                    break
                else:
                    fwd[xi] = yi
                    back[yi] = xi
                    queue.append(xi)
        if ok and len(fwd) == table1.d:
            return True
    return False


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
        if cert.degree > 1:
            if cert.valid:
                best = report["best_valid"]
                if best is None or cert.degree < int(best["degree"]):
                    report["best_valid"] = entry
            elif cert.check_a["pass"] and cert.check_b["pass"]:
                best = report["best_flagged"]
                if best is None or cert.degree < int(best["degree"]):
                    report["best_flagged"] = entry
    return report
