"""Command-line entry points.

Subcommands: enumerate (homomorphism/epimorphism counts), forge (cover
certificates), search (degree sweep), alpha (restriction suites on a
characteristic cover).  All output is deterministic for a fixed seed and
configuration; timing fields are the only exception, and they are kept in a
separate key so certificates can be compared byte-for-byte without them.

Exit codes: 0 completed (even when a certificate is INVALID), 1 usage
error, 2 budget exceeded, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from .autos import AutError, identity_auto, standard_autgens
from .budgets import PROFILES
from .cosets import (
    AutImage,
    CosetError,
    alpha_apply,
    certified_homology_table,
    expand,
    inner_compatibility_holds,
    verify_finite_index_containment,
    verify_injectivity_mechanism,
)
from .forge import (
    ForgeError,
    decimal_str,
    forge_certificate_hall,
    forge_certificate_s3,
    minimal_degree_search,
)
from .perm import EnumerationBoundExceeded, PermError
from .quotients import (
    QuotientError,
    count_homs_oracle,
    epi_tuples,
    get_target,
    hom_tuples,
)
from .words import SurfacePresentation, WordError, inverse_word

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_BREACH = 3

BUDGET_ENV = "MCGLIFT_BUDGET_PROFILE"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _genus(value):
    g = int(value)
    if g < 2:
        raise argparse.ArgumentTypeError(
            f"genus must be >= 2 (closed hyperbolic surfaces), got {g}")
    return g


def _budget(value):
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"budget must be a positive integer, got {n}")
    return n


def build_parser():
    parser = _Parser(
        prog="mcglift",
        description="Finite covers of closed surfaces from finite quotients"
                    " of their fundamental groups, with lifting-condition"
                    " certificates.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budgets, genus=2):
        """The shared flags, and the budget flags of the budgets `p` reads:
        a budget flag that the subcommand would ignore is a usage error."""
        p.add_argument("--genus", type=_genus, default=genus)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None)
        for name in budgets:
            p.add_argument(f"--budget-{name}", type=_budget, default=None)

    p = sub.add_parser("enumerate",
                       help="count homomorphisms and epimorphisms")
    common(p, ("tuples",))
    p.add_argument("--target", choices=("s3", "c2", "a5", "psl2"),
                   required=True)
    p.add_argument("--prime", type=int, default=None,
                   help="psl2 target only")

    p = sub.add_parser("forge", help="forge a cover certificate")
    common(p, ("points", "enum"))
    p.add_argument("--route", choices=("s3", "hall"), default="s3")
    # each route's own flags; giving the other route's is a usage error
    p.add_argument("--prime", type=int, default=None,
                   help="hall route only (default 5)")
    p.add_argument("--collection", type=int, default=None,
                   help="hall route only (default 2)")
    p.add_argument("--truncate-k", type=int, default=None,
                   help="s3 route only")

    p = sub.add_parser("search", help="sweep routes for small cover degrees")
    common(p, ("points", "enum"))
    p.add_argument("--route", choices=("s3", "hall", "all"), default="all")
    p.add_argument("--budget", type=int, default=0,
                   help="number of forge jobs to run")

    p = sub.add_parser("alpha",
                       help="restriction suites on a characteristic cover")
    # the cover fixes the genus; an explicit --genus must agree with it
    common(p, ("enum",), genus=None)
    p.add_argument("--cover", type=str, default="homology2")
    p.add_argument("--check",
                   choices=("all", "hom-law", "inner", "containment",
                            "injectivity"),
                   default="all")
    return parser


def resolve_budgets(args):
    """The Budgets of the profile named by the environment, with every
    budget flag that was given in place of the profile's value; a
    subcommand has only the budget flags of the budgets it reads."""
    name = os.environ.get(BUDGET_ENV, "default")
    if name not in PROFILES:
        raise UsageError(
            f"unknown {BUDGET_ENV} profile {name!r}; expected one of "
            + ", ".join(PROFILES))
    flags = {key: getattr(args, f"budget_{key}", None)
             for key in ("tuples", "points", "enum")}
    return dataclasses.replace(
        PROFILES[name],
        **{key: value for key, value in flags.items() if value is not None})


def _write_out(path, chunks):
    """Write the strings `chunks` to `path` in turn.  A file that cannot be
    opened or written is a usage error."""
    try:
        with open(path, "w") as f:
            f.writelines(chunks)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror}") from e


def _emit_json(payload, path):
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path:
        _write_out(path, (text, "\n"))
    return text


# rows of an `enumerate --out` listing joined into one write
LISTING_ROWS_PER_WRITE = 4096


def write_listing(path, genus, target, hom_count, epis):
    """Write the `enumerate --out` listing of the epimorphisms onto
    `target`, given as the index tuples `epis` of their generator images:
    one row of images in cycle notation per epimorphism.

    The bytes are exactly `json.dumps(listing, sort_keys=True, indent=2)`
    and a newline, for the listing with the keys `epi_images`, `epis`,
    `genus`, `homs` and `target`, so a listing is the same file whichever
    way it was written.  With an indent, `json.dumps` runs the pure-Python
    encoder and holds every chunk of the document before it joins them,
    which made it most of the time of a genus-3 S3 listing and most of the
    memory of the 241920-row PSL2(5) one.  Here each target element is
    encoded once, each row is joined from those lines by index, and the
    rows are streamed to the file `LISTING_ROWS_PER_WRITE` at a time: one
    write per row made the writes half the time of a genus-3 S3 listing."""
    lines = ["      " + json.dumps(p.cycle_string()) for p in target.elements]
    line = lines.__getitem__
    scalars = json.dumps(
        {"epis": len(epis), "genus": genus, "homs": hom_count,
         "target": target.name},
        sort_keys=True, indent=2)

    def chunks():
        # sorted, epi_images comes first; the scalars' own braces close it
        yield '{\n  "epi_images": ['
        sep = "\n    [\n"
        for start in range(0, len(epis), LISTING_ROWS_PER_WRITE):
            batch = epis[start:start + LISTING_ROWS_PER_WRITE]
            yield sep + "\n    ],\n    [\n".join(
                [",\n".join(map(line, idx)) for idx in batch]) + "\n    ]"
            sep = ",\n    [\n"
        yield "\n  ]," if epis else "],"
        yield scalars[1:] + "\n"

    _write_out(path, chunks())


def cmd_enumerate(args, budgets):
    if args.prime is not None and args.target != "psl2":
        raise UsageError(f"--prime does not apply to --target {args.target}")
    target = get_target(args.target, prime=args.prime)
    homs = hom_tuples(args.genus, target, budget=budgets.tuples)
    epis = epi_tuples(target, homs)
    try:
        oracle = count_homs_oracle(args.genus, target)
    except QuotientError:
        oracle_note = ""
    else:
        if oracle != len(homs):
            raise RuntimeError(
                f"enumeration found {len(homs)} but the character count says"
                f" {oracle}")
        oracle_note = f", oracle: {oracle}"
    print(f"homs: {len(homs)}, epis: {len(epis)}{oracle_note}")
    if args.out:
        write_listing(args.out, args.genus, target, len(homs), epis)
    return EXIT_OK


# the flags each forge route does not read; no check of the S3 route
# enumerates, so it reads no enum budget
FOREIGN_FORGE_FLAGS = {"s3": ("prime", "collection", "budget_enum"),
                       "hall": ("truncate_k",)}


def _refuse_foreign_flags(args, names):
    foreign = [f"--{name.replace('_', '-')}" for name in names
               if getattr(args, name) is not None]
    if foreign:
        raise UsageError(
            f"{', '.join(foreign)} does not apply to --route {args.route}")


def cmd_forge(args, budgets):
    _refuse_foreign_flags(args, FOREIGN_FORGE_FLAGS[args.route])
    if args.route == "s3":
        cert = forge_certificate_s3(
            args.genus, truncate_k=args.truncate_k, seed=args.seed,
            budgets=budgets)
    else:
        cert = forge_certificate_hall(
            args.genus, 5 if args.prime is None else args.prime,
            collection=2 if args.collection is None else args.collection,
            seed=args.seed, budgets=budgets)
    out = args.out or f"certificate-{args.route}-g{args.genus}.json"
    _emit_json(cert.json_dict(), out)
    print(f"{cert.status}: route={cert.route} k={cert.k}"
          f" degree={decimal_str(cert.degree)}"
          f" genus_out={decimal_str(cert.genus_out)} -> {out}")
    return EXIT_OK


def cmd_search(args, budgets):
    if args.route == "s3":
        _refuse_foreign_flags(args, ("budget_enum",))
    routes = ("hall", "s3") if args.route == "all" else (args.route,)
    report = minimal_degree_search(
        args.genus, routes=routes, budget=args.budget, seed=args.seed,
        budgets=budgets)
    if args.out:
        base, ext = os.path.splitext(args.out)
        for i, job in enumerate(report["jobs"]):
            path = f"{base}-job{i}{ext or '.json'}"
            _emit_json(job["certificate"], path)
            job["path"] = path
    else:
        for job in report["jobs"]:
            job["path"] = "(not written)"
    text = _emit_json(report, args.out)
    if not args.out:
        print(text)
    else:
        best = report["best_valid"] or report["best_flagged"]
        line = (f"best degree {best['degree']} ({best['status']})"
                if best else "no certificates examined")
        print(f"searched {len(report['jobs'])} jobs; {line} -> {args.out}")
    return EXIT_OK


def _parse_cover(name):
    """The genus of a cover named homology<g>, with g >= 2 written in ASCII
    digits and no leading zeros."""
    if name.startswith("homology"):
        tail = name[len("homology"):]
        if (tail.isascii() and tail.isdigit() and str(int(tail)) == tail
                and int(tail) >= 2):
            return int(tail)
    raise UsageError(f"unknown cover name {name!r}; expected homology<g>")


def _alpha_budget(genus, check, dump, enum):
    """Each alpha suite makes N restricted images, one per Schreier
    generator of the cover, N = (2g-1)·2^(2g) + 1, for every automorphism
    it restricts; with G = 5g standard generators those counts are at
    most N·(G²+G) for hom-law, 25·N for inner, N² for containment,
    N·(G+1) for injectivity and G·N for the --out dump.  Any count of a
    selected suite over the enum budget is exit 2 before any table is
    built."""
    if 2 * genus >= enum.bit_length():
        # every count is at least N > 2^(2g) > enum; decided without
        # writing N out
        raise EnumerationBoundExceeded(
            f"alpha at genus {genus} makes over 2^{2 * genus} restricted"
            f" images, over the enum budget {enum}")
    n = (2 * genus - 1) * 2 ** (2 * genus) + 1
    gens = 5 * genus
    counts = {
        "hom-law": n * (gens * gens + gens),
        "inner": 25 * n,
        "containment": n * n,
        "injectivity": n * (gens + 1),
    }
    if check != "all":
        counts = {check: counts[check]}
    if dump:
        counts["the --out dump"] = gens * n
    for suite, count in counts.items():
        if count > enum:
            raise EnumerationBoundExceeded(
                f"{suite} makes {count} restricted images, over the enum"
                f" budget {enum}")


def _hom_law_failures(table, gens, images, pres):
    """The number of values on which the restriction of g1∘g2 and the
    composite of the restrictions `images` of g1 and g2 differ as group
    elements, summed over all ordered pairs of the standard generators
    `gens`.

    Restriction reads only the image tuple, and ordered pairs often
    compose to equal ones (ta1∘ta2 = ta2∘ta1): one restriction per
    distinct composite, in order of first appearance, against the composed
    restrictions of every pair that gives it.  Those are composed from
    gauge copies of `images`, so the caches that composing fills die when
    the suite returns."""
    composites = {}
    for g1 in gens:
        for g2 in gens:
            auto = g1.forward.compose(g2.forward)
            composites.setdefault(auto.images, (auto, []))[1].append(
                (g1.name, g2.name))
    factors = {name: AutImage._gauged(table, image.openings, image.reached,
                                      image.cores)
               for name, image in images.items()}
    fails = 0
    for auto, pairs in composites.values():
        left = alpha_apply(table, auto)
        for n1, n2 in pairs:
            right = factors[n1].compose(factors[n2])
            # the gauges first: with equal openings the cores decide, and
            # no value is built; otherwise the whole value tuples, and the
            # word problem only where they differ
            if left == right:
                continue
            for lv, rv in zip(left.values, right.values):
                if lv != rv and not pres.words_equal(expand(lv, table),
                                                     expand(rv, table)):
                    fails += 1
    return fails


def cmd_alpha(args, budgets):
    genus = _parse_cover(args.cover)
    if args.genus is not None and args.genus != genus:
        raise UsageError(
            f"--genus {args.genus} conflicts with cover {args.cover}")
    _alpha_budget(genus, args.check, bool(args.out), budgets.enum)
    table, rec, cert = certified_homology_table(genus)
    gens = standard_autgens(genus)
    pres = SurfacePresentation(genus)
    lines = [
        f"cover: {args.cover} (degree {table.d}, {table.count} subgroup"
        f" generators, certificate on {rec.k} order-2 surjections)"
    ]
    suites = {}
    images = None
    if args.check in ("all", "hom-law", "injectivity") or args.out:
        images = {g.name: alpha_apply(table, g.forward) for g in gens}

    if args.check in ("all", "hom-law"):
        fails = _hom_law_failures(table, gens, images, pres)
        suites["hom-law"] = fails == 0
        lines.append(
            f"hom-law: {len(gens)**2} ordered pairs, failures={fails}")

    if args.check in ("all", "inner"):
        import random

        rng = random.Random(args.seed)
        fails = 0
        trials = 25
        for _ in range(trials):
            u = []
            for _ in range(rng.randint(1, 6)):
                j = rng.randint(1, table.count)
                w = table.words[j - 1]
                u.extend(w if rng.random() < 0.5 else inverse_word(w))
            if not inner_compatibility_holds(table, tuple(u), pres):
                fails += 1
        suites["inner"] = fails == 0
        lines.append(f"inner: {trials} random subgroup words, failures={fails}")

    if args.check in ("all", "containment"):
        ok, d = verify_finite_index_containment(table, pres)
        suites["containment"] = ok
        lines.append(f"containment: {'ok' if ok else 'FAILED'}, index {d}")

    if args.check in ("all", "injectivity"):
        ident = identity_auto(genus)
        restricted = [(alpha_apply(table, ident), ident)] + [
            (images[g.name], g.forward) for g in gens]
        held = sum(
            1 for image, auto in restricted
            if verify_injectivity_mechanism(image, auto, pres))
        suites["injectivity"] = held == len(restricted)
        lines.append(
            f"injectivity: implication held on {held}/{len(restricted)} maps")

    for line in lines:
        print(line)
    all_ok = all(suites.values())
    print("alpha suites:", "all pass" if all_ok else "FAILURES PRESENT")
    if args.out:
        dump = {
            "cover": args.cover,
            "suites": suites,
            "images": {g.name: images[g.name].as_dict() for g in gens},
        }
        _emit_json(dump, args.out)
    if not all_ok:
        raise RuntimeError("alpha verification suite failed")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        budgets = resolve_budgets(args)
        handler = {
            "enumerate": cmd_enumerate,
            "forge": cmd_forge,
            "search": cmd_search,
            "alpha": cmd_alpha,
        }[args.command]
        return handler(args, budgets)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ForgeError, QuotientError, WordError, AutError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except EnumerationBoundExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (RuntimeError, AssertionError, PermError, CosetError) as e:
        print(f"internal invariant breach: {e}", file=sys.stderr)
        return EXIT_BREACH


if __name__ == "__main__":
    sys.exit(main())
