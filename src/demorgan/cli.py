"""Command line interface and the JSON site/frame formats.

Site documents::

    {
      "format": "site/1",
      "objects": ["a", "b", "c"],
      "arrows": [{"name": "f", "dom": "a", "cod": "c"}, ...],
      "compose": [{"first": "f", "then": "g", "equals": "h"}, ...],
      "covers": {"c": [["f", "g"], ...]}          # optional
    }

Identities are implicit and named ``id_<object>``; identity
compositions are implied.  Each covers entry is a list of generators:
the listed topology is the one generated by those sieves, the maximal
sieve never needs listing, and ``[]`` denotes the empty sieve.

Frame documents::

    {"elements": ["0", "m", "1"], "leq": [["0", "m"], ["m", "1"]]}

with the reflexive-transitive closure implied.  A document whose
fields have any other shape is refused (exit code 2).

Exit codes: 0 the command ran (decision results are payload), 2 the
input or the arguments were invalid (or no object survives reduction),
3 an enumeration bound was exceeded, 4 ``report``'s decision routes
disagreed (the payload is still printed).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .documents import check_document
from .errors import BoundExceeded, EmptyReduction, InputError, ParseError
from .fincat import (
    FiniteCategory,
    is_mono,
    ore_counterexample,
    right_ore,
    validate_category,
)
from .frames import (
    demorganize_frame,
    enumerate_nuclei,
    is_almost_discrete,
    is_extremally_disconnected,
)
from .heyting import (
    HeytingAlgebra,
    from_poset,
    has_boolean_property,
    has_de_morgan_property,
    is_boolean_algebra,
    is_de_morgan_algebra,
    regular_elements,
)
from .sieves import Sieve, enumerate_sieves, generate_sieve, maximal_sieve
from .sieves import _b_mask, _m_mask
from .subobjects import _oracle, oracle_is_boolean, oracle_is_demorgan
from .topology import (
    GrothendieckTopology,
    _boolean_criterion,
    _demorgan_criterion,
    _general_witness,
    _principal_witness,
    boolean_counterexample,
    booleanize_site,
    countroc_witness,
    demorgan_counterexample,
    demorgan_topology,
    demorganize_site,
    dense_topology,
    enumerate_topologies,
    generate_topology,
    # No command calls these four: ``report`` and ``is-*`` run the loops
    # above.  They stay attributes of this module, where the benchmark's
    # traced ``report`` run wraps every name in
    # ``perfbench/workloads.CLI_LAYER_CALLS`` (tests/test_bench_contract.py).
    is_boolean_general,
    is_boolean_reduced,
    is_demorgan_general,
    is_demorgan_reduced,
    leq_topology,
    no_empty_covers,
    trivial_topology,
    validate_topology,
)


# -- document handling --------------------------------------------------------

def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
        ) from exc


def _checked(path: str, data, kind: str, required=()):
    """``data`` after the library's shape check for a ``kind`` document;
    a refusal names ``path``."""
    try:
        check_document(data, kind, required)
    except InputError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return data


def _load_site(path: str) -> dict:
    return _checked(path, _load_json(path), "site", ("objects",))


def _covers_from_data(C: FiniteCategory, covers_data) -> GrothendieckTopology:
    seeds = []
    for obj, gen_lists in covers_data.items():
        for gens in gen_lists:
            seeds.append(generate_sieve(C, obj, gens))
    return generate_topology(C, seeds)


def parse_site(path: str):
    """Read a site document; returns (category, topology or None)."""
    data = _load_site(path)
    C = validate_category(data)
    J = None
    if "covers" in data:
        J = _covers_from_data(C, data["covers"])
    return C, J


def parse_frame(path: str) -> HeytingAlgebra:
    data = _checked(path, _load_json(path), "frame", ("elements", "leq"))
    return from_poset(data)


def topology_to_data(
    J: GrothendieckTopology, *, max_arrows_into: int = 16
) -> dict:
    """Each object's covering sieves, listed under the sieve bound."""
    return {
        obj: sorted(sorted(s.members) for s in sieves)
        for obj, sieves in J.covers_map(max_arrows_into=max_arrows_into).items()
    }


def site_to_data(C: FiniteCategory, J: GrothendieckTopology | None = None) -> dict:
    data = {"format": "site/1"}
    data.update(C.to_data())
    if J is not None:
        data["covers"] = topology_to_data(J)
    return data


def _write_json(path: str, data: dict):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def write_site(path: str, C: FiniteCategory, J: GrothendieckTopology | None = None):
    _write_json(path, site_to_data(C, J))


# -- rendering ----------------------------------------------------------------

def _sieve_text(S: Sieve) -> str:
    return "{" + ",".join(sorted(S.members)) + "}"


def _emit(payload: dict, args, lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def _topology_lines(covers: dict):
    return [
        f"  {obj}: " + ", ".join("{" + ",".join(s) + "}" for s in covers[obj])
        for obj in sorted(covers)
    ]


def _resolve_topology(C, J_from_file, spec: str | None):
    if spec is None:
        return J_from_file if J_from_file is not None else trivial_topology(C)
    if spec == "trivial":
        return trivial_topology(C)
    if spec == "dense":
        return dense_topology(C)
    if spec == "demorgan":
        return demorgan_topology(C)
    data = _load_json(spec)
    if not (isinstance(data, dict) and "covers" in data):
        data = {"covers": data}
    _checked(spec, data, "site")
    return _covers_from_data(C, data["covers"])


def _site(args):
    """The category and the topology named by ``args.topology``."""
    C, J_file = parse_site(args.site)
    return C, _resolve_topology(C, J_file, args.topology)


def _shown_covers(args, J):
    """J's covers as printed, listed under ``--max-sieve-arrows``; also
    written to ``--output`` when given."""
    covers = topology_to_data(J, max_arrows_into=args.max_sieve_arrows)
    if getattr(args, "output", None):
        _write_json(args.output, {**site_to_data(J.category), "covers": covers})
    return covers


# -- subcommand implementations ------------------------------------------------

def _cmd_validate(args):
    C, J = parse_site(args.site)
    payload = {
        "objects": len(C.objects),
        "arrows": len(C.arrows),
        "non_identity_arrows": len(C.non_identity_arrows()),
        "topology": None,
    }
    lines = [
        f"category ok: {len(C.objects)} objects, {len(C.arrows)} arrows "
        f"({len(C.non_identity_arrows())} non-identity)",
    ]
    if J is not None:
        covers = J.covers_map(max_arrows_into=args.max_sieve_arrows)
        payload["topology"] = {
            obj: len(covers[obj]) for obj in sorted(C.objects)
        }
        counts = ", ".join(
            f"{obj}:{len(covers[obj])}" for obj in sorted(C.objects)
        )
        lines.append(f"topology ok: covering sieves per object {counts}")
    return _emit(payload, args, lines)


def _cmd_ore(args):
    C, _ = parse_site(args.site)
    found = ore_counterexample(C)
    witness = None
    lines = [str(found is None).lower()]
    if found is not None:
        witness = {"f": found[0], "g": found[1]}
        lines.append(
            f"witness: cospan ({found[0]}, {found[1]}) has no completing "
            f"square"
        )
    return _emit({"result": found is None, "witness": witness}, args, lines)


def _cmd_sieves(args):
    C, _ = parse_site(args.site)
    found = enumerate_sieves(
        C, args.object, max_arrows_into=args.max_sieve_arrows
    )
    sieves = sorted(sorted(S.members) for S in found)
    lines = [f"{len(sieves)} sieves on {args.object}:"]
    lines += ["  {" + ",".join(s) + "}" for s in sieves]
    return _emit({"object": args.object, "sieves": sieves}, args, lines)


def _cmd_topology_validate(args):
    data = _load_site(args.site)
    C = validate_category(data)
    # covers on an unknown object are refused, as by the other commands
    listed = {**dict.fromkeys(C.objects, []), **data.get("covers", {})}
    covers = {
        obj: [generate_sieve(C, obj, gens) for gens in gen_lists]
        + [maximal_sieve(C, obj)]
        for obj, gen_lists in listed.items()
    }
    try:
        validate_topology(C, covers)
    except InputError as exc:
        payload = {"valid": False, "reason": str(exc)}
        return _emit(payload, args, ["invalid", f"  {exc}"])
    return _emit({"valid": True}, args, ["valid"])


def _cmd_show_topology(args):
    """``topology generate``, ``dense-topology`` and ``demorgan-topology``:
    the topology named by ``args.topology`` (default: the site's own)."""
    C, J = _site(args)
    covers = _shown_covers(args, J)
    return _emit(
        {"covers": covers}, args, [f"{args.title}:"] + _topology_lines(covers)
    )


def _cmd_topology_compare(args):
    C1, J1 = parse_site(args.site)
    C2, J2 = parse_site(args.other)
    if J1 is None:
        J1 = trivial_topology(C1)
    if J2 is None:
        J2 = trivial_topology(C2)
    le = leq_topology(J1, J2)
    ge = leq_topology(J2, J1)
    verdict = {
        (True, True): "equal",
        (True, False): "first<second",
        (False, True): "second<first",
        (False, False): "incomparable",
    }[(le, ge)]
    return _emit(
        {"first_leq_second": le, "second_leq_first": ge, "verdict": verdict},
        args,
        [verdict],
    )


def _decision(args):
    """``is-demorgan`` and ``is-boolean``.  The general and reduced
    methods take the verdict and the witness from one loop; the oracle
    shows the general route's witness."""
    C, J = _site(args)
    bound = args.max_sieve_arrows
    demorgan = args.law == "demorgan"
    witness = None
    if args.method == "reduced":
        law_mask = _m_mask if demorgan else _b_mask
        found = _principal_witness(C, J, (law_mask,))[0]
        result = found is None
    else:
        finder = demorgan_counterexample if demorgan else boolean_counterexample
        if args.method == "oracle":
            oracle = oracle_is_demorgan if demorgan else oracle_is_boolean
            result = oracle(C, J, max_arrows_into=bound)
            found = None if result else finder(C, J, max_arrows_into=bound)
        else:
            found = finder(C, J, max_arrows_into=bound)
            result = found is None
    lines = [str(result).lower()]
    if found is not None and args.method == "reduced":
        obj, arrow, law = found
        witness = {"object": obj, "arrow": arrow, "law_sieve": sorted(law.members)}
        lines += [
            "witness:", f"  object: {obj}", f"  arrow f: {arrow}",
            f"  law sieve of (f): {_sieve_text(law)} not covering",
        ]
    elif found is not None:
        obj, closed, criterion = found
        witness = {
            "object": obj,
            "closed_sieve": sorted(closed.members),
            "criterion_sieve": sorted(criterion.members),
        }
        lines += [
            "witness:",
            f"  object: {obj}",
            f"  closed sieve R: {_sieve_text(closed)}",
            f"  criterion sieve: {_sieve_text(criterion)} not covering",
        ]
    return _emit(
        {"result": result, "method": args.method, "witness": witness},
        args,
        lines,
    )


def _cmd_repair(args):
    """``demorganize`` and ``booleanize``: ``args.repair`` of the site."""
    C, J = _site(args)
    K = args.repair(C, J)
    covers = _shown_covers(args, K)
    lines = [
        f"reduced category objects: {', '.join(sorted(K.category.objects))}",
        f"{args.title}:",
    ] + _topology_lines(covers)
    return _emit(
        {
            "objects": sorted(K.category.objects),
            "covers": covers,
        },
        args,
        lines,
    )


def _cmd_enumerate(args):
    C, _ = parse_site(args.site)
    bound = args.max_sieve_arrows
    tops = enumerate_topologies(
        C, max_nonidentity_arrows=args.max_enum_arrows, max_arrows_into=bound
    )
    listed = [topology_to_data(J, max_arrows_into=bound) for J in tops]
    payload = {"count": len(tops), "topologies": listed}
    lines = [f"{len(tops)} topologies"]
    for i, covers in enumerate(listed):
        lines.append(f"topology {i}:")
        lines += _topology_lines(covers)
    return _emit(payload, args, lines)


def _cmd_heyting_check(args):
    H = parse_frame(args.frame)
    payload = {
        "elements": len(H),
        "de_morgan_algebra": is_de_morgan_algebra(H),
        "boolean_algebra": is_boolean_algebra(H),
        "de_morgan_property": has_de_morgan_property(H),
        "boolean_property": has_boolean_property(H),
        "regular_elements": sorted(regular_elements(H).elements),
    }
    lines = [f"{k}: {str(v).lower() if isinstance(v, bool) else v}"
             for k, v in payload.items() if k != "regular_elements"]
    lines.append("regular_elements: " + ", ".join(payload["regular_elements"]))
    return _emit(payload, args, lines)


def _cmd_frame_nuclei(args):
    F = parse_frame(args.frame)
    nuclei = enumerate_nuclei(F, max_size=args.max_frame_elements)
    payload = {"count": len(nuclei), "nuclei": [dict(j.table) for j in nuclei]}
    lines = [f"{len(nuclei)} nuclei"]
    for j in nuclei:
        body = ", ".join(f"{a}->{v}" for a, v in sorted(j.table.items()))
        lines.append(f"  {body}")
    return _emit(payload, args, lines)


def _cmd_frame_demorganize(args):
    F = parse_frame(args.frame)
    j, q = demorganize_frame(F)
    payload = {
        "nucleus": dict(j.table),
        "fixset": sorted(q.elements),
        "fixset_size": len(q),
    }
    body = ", ".join(f"{a}->{v}" for a, v in sorted(j.table.items()))
    lines = [
        f"nucleus: {body}",
        f"fixset ({len(q)} elements): {', '.join(sorted(q.elements))}",
    ]
    return _emit(payload, args, lines)


def _cmd_frame_classify(args):
    F = parse_frame(args.frame)
    payload = {
        "de_morgan": is_de_morgan_algebra(F),
        "boolean": is_boolean_algebra(F),
        "extremally_disconnected": is_extremally_disconnected(F),
        "almost_discrete": is_almost_discrete(F),
    }
    lines = [f"{k}: {str(v).lower()}" for k, v in payload.items()]
    return _emit(payload, args, lines)


def _report_verdicts(C, J, bound):
    """``report``'s verdicts of each route on De Morgan's law and on
    excluded middle: each route runs once and decides both laws in one
    sweep."""
    general = _general_witness(
        C, J, (_demorgan_criterion, _boolean_criterion), bound
    )
    reduced = _principal_witness(C, J, (_m_mask, _b_mask))
    oracle = _oracle(C, J, (is_de_morgan_algebra, is_boolean_algebra), bound)
    return tuple(
        {
            "general": general[k] is None,
            "reduced": reduced[k] is None,
            "oracle": oracle[k],
        }
        for k in (0, 1)
    )


def _cmd_report(args):
    """``report``: the right Ore condition, each decision route once for
    both laws (De Morgan's and excluded middle), and a non-De-Morgan
    witness when no object has an empty cover; exit 4 when the routes
    disagree on either law."""
    C, J = _site(args)
    ore = right_ore(C)
    dm, bl = _report_verdicts(C, J, args.max_sieve_arrows)
    nec = no_empty_covers(J)
    counter = countroc_witness(C, J) if nec else None
    agree = len(set(dm.values())) == 1 and len(set(bl.values())) == 1
    payload = {
        "objects": len(C.objects),
        "arrows": len(C.arrows),
        "right_ore": ore,
        "no_empty_covers": nec,
        "de_morgan": dm,
        "boolean": bl,
        "methods_agree": agree,
        "non_de_morgan_witness": list(counter) if counter else None,
    }
    lines = [
        f"category: {len(C.objects)} objects, {len(C.arrows)} arrows",
        f"right Ore: {str(ore).lower()}",
        f"no empty covers: {str(nec).lower()}",
        f"De Morgan: general={str(dm['general']).lower()} "
        f"reduced={str(dm['reduced']).lower()} oracle={str(dm['oracle']).lower()}",
        f"Boolean: general={str(bl['general']).lower()} "
        f"reduced={str(bl['reduced']).lower()} oracle={str(bl['oracle']).lower()}",
    ]
    if counter:
        lines.append(
            f"non-De-Morgan witness: object {counter[0]}, arrows "
            f"({counter[1]}, {counter[2]})"
        )
    _emit(payload, args, lines)
    if agree:
        return 0
    print("error: decision methods disagree", file=sys.stderr)
    return 4


def _cmd_is_mono(args):
    C, _ = parse_site(args.site)
    result = is_mono(C, args.arrow)
    return _emit({"result": result}, args, [str(result).lower()])


# -- parser --------------------------------------------------------------------

def _bound(text: str) -> int:
    """A bound flag's value: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_common(p, site=True, output=False, topology=False, bound=True):
    if site:
        p.add_argument("site", help="site document (JSON)")
    if site and bound:
        p.add_argument(
            "--max-sieve-arrows", type=_bound, default=16, metavar="N",
            help="per-object sieve enumeration bound (default 16)",
        )
    if topology:
        p.add_argument(
            "--topology",
            help="trivial|dense|demorgan or a JSON file with covers; "
            "default: the site's covers, else trivial",
        )
    if output:
        p.add_argument("-o", "--output", help="write the result as JSON")
    p.add_argument("--json", action="store_true", help="machine-readable output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared.  Its
    defaults bind only the command handlers and the two repairs; every
    other library call is looked up in this module when a handler runs."""
    ap = argparse.ArgumentParser(
        prog="demorgan",
        description="Decide De Morgan's law and excluded middle for sheaf "
        "toposes on finite sites; construct dense and De Morgan topologies, "
        "DeMorganizations and frame nuclei.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a site document")
    _add_common(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("ore", help="check the right Ore condition")
    _add_common(p, bound=False)
    p.set_defaults(fn=_cmd_ore)

    p = sub.add_parser("mono", help="check whether an arrow is monic")
    p.add_argument("arrow")
    _add_common(p, bound=False)
    p.set_defaults(fn=_cmd_is_mono)

    p = sub.add_parser("sieves", help="list all sieves on an object")
    p.add_argument("object")
    _add_common(p)
    p.set_defaults(fn=_cmd_sieves)

    p = sub.add_parser("topology", help="validate/generate/compare topologies")
    tsub = p.add_subparsers(dest="subcommand", required=True)
    q = tsub.add_parser("validate", help="check the listed covers literally")
    _add_common(q, bound=False)
    q.set_defaults(fn=_cmd_topology_validate)
    q = tsub.add_parser("generate", help="saturate the covers into a topology")
    _add_common(q, output=True)
    q.set_defaults(
        fn=_cmd_show_topology, topology=None, title="generated topology"
    )
    q = tsub.add_parser("compare", help="compare two topologies on one category")
    _add_common(q, bound=False)
    q.add_argument("other", help="second site document")
    q.set_defaults(fn=_cmd_topology_compare)

    for name, spec, title, desc in [
        ("dense-topology", "dense", "dense topology",
         "the stably-non-empty coverage"),
        ("demorgan-topology", "demorgan", "De Morgan topology",
         "the least De Morgan coverage"),
    ]:
        p = sub.add_parser(name, help=desc)
        _add_common(p, output=True)
        p.set_defaults(fn=_cmd_show_topology, topology=spec, title=title)

    for law, desc in [
        ("demorgan", "does the sheaf topos satisfy De Morgan's law"),
        ("boolean", "is the sheaf topos Boolean"),
    ]:
        p = sub.add_parser(f"is-{law}", help=desc)
        # --max-sieve-arrows bounds the general and oracle methods; the
        # reduced method lists no sieve and ignores it
        _add_common(p, topology=True)
        p.add_argument(
            "--method", choices=["general", "reduced", "oracle"],
            default="general",
        )
        p.set_defaults(fn=_decision, law=law)

    for name, repair, title, desc in [
        ("demorganize", demorganize_site, "DeMorganized topology",
         "smallest De Morgan topology above the input"),
        ("booleanize", booleanize_site, "Booleanized topology",
         "smallest Boolean topology above the input"),
    ]:
        p = sub.add_parser(name, help=desc)
        _add_common(p, output=True, topology=True)
        p.set_defaults(fn=_cmd_repair, repair=repair, title=title)

    p = sub.add_parser("enumerate-topologies", help="all topologies on the category")
    _add_common(p)
    p.add_argument(
        "--max-enum-arrows", type=_bound, default=6, metavar="N",
        help="non-identity arrow bound for topology enumeration (default 6)",
    )
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("heyting", help="Heyting algebra checks")
    hsub = p.add_subparsers(dest="subcommand", required=True)
    q = hsub.add_parser("check", help="law and property checks for a frame document")
    q.add_argument("frame", help="frame document (JSON)")
    _add_common(q, site=False)
    q.set_defaults(fn=_cmd_heyting_check)

    p = sub.add_parser("frame", help="frame and nucleus operations")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    for name, fn, desc in [
        ("nuclei", _cmd_frame_nuclei, "enumerate all nuclei"),
        ("demorganize", _cmd_frame_demorganize, "largest dense De Morgan quotient"),
        ("classify", _cmd_frame_classify, "law and topology classifications"),
    ]:
        q = fsub.add_parser(name, help=desc)
        q.add_argument("frame", help="frame document (JSON)")
        _add_common(q, site=False)
        q.set_defaults(fn=fn)
        if name == "nuclei":
            q.add_argument(
                "--max-frame-elements", type=_bound, default=8, metavar="N",
                help="frame size bound for nucleus enumeration (default 8)",
            )

    p = sub.add_parser("report", help="full report for a site")
    _add_common(p, topology=True)
    p.set_defaults(fn=_cmd_report)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, EmptyReduction) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
