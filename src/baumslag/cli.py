"""Command-line front end.

Exit codes: 0 success / verification passed, 1 verification failure,
2 usage or parse error, 3 domain-precondition error.  All output is a
deterministic function of the flags.  Every one-shot command (all but
``verify``) returns through ``_report``, the one place that writes its
output and maps its verdict to exit code 0 or 1: ``--format structured``
prints one JSON object holding ``command``, the head key (``group``, or
``input`` for ``pi1``) and the command's fields; text prints the head
line and then the command's lines.  ``verify`` prints its
``SuiteReport`` as text or JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import britton, harness
from .abelianization import abelianization
from .errors import DomainError
from .graph_of_groups import (
    BOUNDARY_INJECTIVITY_ASSUMPTION,
    GogValidationError,
    fundamental_presentation,
    load,
)
from .metabelian import (
    MetabelianParams,
    bezout_certificate,
    eval_word,
    malnormality_violation_witness,
    parse_element,
    parse_params,
    power_conjugacy_witness,
    two_gen_classify,
)
from .words import format_word, parse_word

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _parse_group(text: str):
    text = text.strip()
    if text.startswith("BS"):
        return britton.parse_bs_params(text)
    if text.startswith("G"):
        return parse_params(text)
    raise ValueError(f"malformed group {text!r}, expected 'BS(m,n)' or 'G(m,n)'")


def _require(family: type, group):
    """The group, if it is of the family (BsParams or MetabelianParams)."""
    if not isinstance(group, family):
        name = "BS(m,n)" if family is britton.BsParams else "G(m,n)"
        raise ValueError(f"this command needs a {name} group, got {group}")
    return group


def _report(
    args, head: tuple[str, object], fields: dict, lines: list[str], ok: bool = True
) -> int:
    """Print a one-shot command's report and return its exit code.

    ``head`` is the (key, value) pair that opens both renderings; the
    text lines carry facts that ``fields`` may lack, so neither is
    derived from the other."""
    key, value = head
    if args.format == "structured":
        payload = {"command": args.command, key: str(value), **fields}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{key}: {value}")
        for line in lines:
            print(line)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _show_word(formatted: str) -> str:
    return formatted if formatted else "(empty word)"


def cmd_reduce(args) -> int:
    params = _require(britton.BsParams, _parse_group(args.group))
    word = britton.BsWord.from_text(args.word)
    reduced = britton.britton_reduce(word, params)
    trivial = not reduced
    formatted = reduced.format()
    fields = {
        "input": args.word,
        "reduced": formatted,
        "trivial": trivial,
    }
    lines = [
        f"input: {args.word}",
        f"reduced: {_show_word(formatted)}",
        f"trivial: {'yes' if trivial else 'no'}",
    ]
    return _report(args, ("group", params), fields, lines)


def cmd_eval(args) -> int:
    params = _require(MetabelianParams, _parse_group(args.group))
    word = parse_word(args.word, britton.GENERATORS)
    element = eval_word(word, params)
    fields = {
        "input": args.word,
        "element": str(element),
    }
    lines = [
        f"input: {args.word}",
        f"element: {element}",
    ]
    return _report(args, ("group", params), fields, lines)


def cmd_classify(args) -> int:
    params = _require(MetabelianParams, _parse_group(args.group))
    parts = [p for p in args.elems.split(";")]
    if len(parts) != 2:
        raise ValueError("expected exactly two elements separated by ';'")
    g1 = parse_element(parts[0], params)
    g2 = parse_element(parts[1], params)
    result = two_gen_classify(g1, g2)
    fields = {
        "g1": str(g1),
        "g2": str(g2),
        "kind": result.kind,
        "d": str(result.d) if result.d is not None else None,
        "common_power": list(result.common_power) if result.common_power else None,
        "subgroup": str(result.subgroup) if result.subgroup else None,
        "anchor": str(result.anchor) if result.anchor else None,
    }
    lines = [
        f"g1: {g1}",
        f"g2: {g2}",
        f"kind: {result.kind}",
    ]
    if result.d is not None:
        lines.append(f"d = g1^{g2.p} * g2^{-g1.p}: {result.d}")
    if result.common_power is not None:
        i, j = result.common_power
        lines.append(f"common power: g1^{i} = g2^{j}")
    if result.subgroup is not None:
        lines.append(f"contains: {result.subgroup} generated by d and {result.anchor}")
    return _report(args, ("group", params), fields, lines)


# G(1,1) has no witness of either G(m,n) kind; each kind's (structured, text) note.
_NO_WITNESS_NOTES = {
    "weak-ah": (
        "m = n: no conjugate-power witness; G(1,1) is free abelian of rank 2 "
        "and contains Z^2 as itself",
        "m = n; G(1,1) is free abelian of rank 2 and contains Z^2 as itself",
    ),
    "csa": ("G(1,1) is abelian; H is not a proper subgroup",) * 2,
}


def cmd_witness(args) -> int:
    group = _parse_group(args.group)
    if args.kind == "z2":
        params = _require(britton.BsParams, group)
        report = britton.z2_witness(params, args.bound)
        ok = report.verified
        fields = {
            "u": report.u.format(),
            "v": report.v.format(),
            "commutator_trivial": report.commutator_is_trivial,
            "bound": report.bound,
            "pairs_checked": report.pairs_checked,
            "collapsed_pairs": [list(p) for p in report.collapsed_pairs],
        }
        lines = [
            f"u: {report.u.format()}",
            f"v: {report.v.format()}",
            f"commutator [u, v] trivial: {'yes' if report.commutator_is_trivial else 'no'}",
            f"nonzero powers u^i v^j checked (|i|, |j| <= {report.bound}): {report.pairs_checked}",
            f"collapsed pairs: {list(report.collapsed_pairs) or 'none'}",
            "note: faithfulness is checked up to the stated bound only",
        ]
    else:
        params = _require(MetabelianParams, group)
        if args.kind == "weak-ah":
            witness = power_conjugacy_witness(params)
        else:
            witness = malnormality_violation_witness(params)
        if witness is None:
            note, text_note = _NO_WITNESS_NOTES[args.kind]
            fields = {"kind": args.kind, "witness": None, "note": note}
            lines = ["witness: none", f"note: {text_note}"]
            return _report(args, ("group", params), fields, lines)
        ok = witness.verify()
        if args.kind == "weak-ah":
            identity = f"t x^{witness.e1} t^-1 = x^{witness.e2}"
            fields = {
                "witness": {
                    "x": str(witness.x),
                    "t": str(witness.t),
                    "e1": witness.e1,
                    "e2": witness.e2,
                },
                "identity": identity,
            }
            lines = [
                f"x: {witness.x}",
                f"t: {witness.t}",
                f"identity: {identity}",
                f"exponents: |{witness.e1}| != |{witness.e2}|",
            ]
        else:
            conj = witness.h.conjugate(witness.g)
            fields = {
                "witness": {"h": str(witness.h), "g": str(witness.g)},
                "conjugate": str(conj),
            }
            lines = [
                f"h (in H): {witness.h}",
                f"g (outside H): {witness.g}",
                f"g^-1 h g: {conj} (in H, nontrivial)",
            ]
    fields = {"kind": args.kind, **fields, "verified": ok}
    lines.append(f"verified: {'yes' if ok else 'no'}")
    return _report(args, ("group", params), fields, lines, ok)


_TARGET_RE = re.compile(r"1/([mn])(?:\^(\d+))?\Z")


def cmd_cert(args) -> int:
    params = _require(MetabelianParams, _parse_group(args.group))
    match = _TARGET_RE.match(args.target.strip())
    if not match:
        raise ValueError(
            f"malformed target {args.target!r}, expected '1/n^k' or '1/m^k'"
        )
    side = match.group(1)
    k = int(match.group(2)) if match.group(2) else 1
    cert = bezout_certificate(params, k, side)
    ok = cert.verify()
    base = params.n if side == "n" else params.m
    word_text = format_word(cert.word, britton.GENERATORS)
    value = eval_word(cert.word, params)
    fields = {
        "target": f"1/{base}^{k}",
        "side": side,
        "k": k,
        "q": cert.q,
        "q_prime": cert.q_prime,
        "word": word_text,
        "word_value": str(value),
        "verified": ok,
    }
    m_k, n_k = params.m**k, params.n**k
    lines = [
        f"target: (1/{base ** k}, 0)",
        f"bezout: {m_k}*({cert.q}) + {n_k}*({cert.q_prime}) = 1",
        f"word: {_show_word(word_text)}",
        f"word evaluates to: {value}",
        f"verified: {'yes' if ok else 'no'}",
    ]
    return _report(args, ("group", params), fields, lines, ok)


def cmd_pi1(args) -> int:
    gog = load(args.input)
    tree = None
    if args.tree is not None:
        tree = frozenset(p for p in (s.strip() for s in args.tree.split(",")) if p)
    pi1 = fundamental_presentation(gog, tree)
    ab = abelianization(pi1.simplified)
    fields = {
        "tree": sorted(pi1.tree),
        "abelianization": str(ab),
        "assumptions": [BOUNDARY_INJECTIVITY_ASSUMPTION],
    }
    for name, pres in (("raw", pi1.raw), ("simplified", pi1.simplified)):
        fields[name] = {
            "generators": list(pres.generators),
            "relators": [format_word(r, pres.generators) for r in pres.relators],
        }
    lines = [
        f"tree: {', '.join(sorted(pi1.tree)) or '(empty)'}",
        f"raw: {pi1.raw.format()}",
        f"simplified: {pi1.simplified.format()}",
        f"abelianization: {ab}",
        f"assumption: {BOUNDARY_INJECTIVITY_ASSUMPTION}",
    ]
    return _report(args, ("input", args.input), fields, lines)


def _oracle_k(group) -> int:
    bs = _require(britton.BsParams, group)
    if bs.m != 1 or bs.n < 1:
        raise DomainError(f"oracle suite needs BS(1,k) groups with k >= 1, got {bs}")
    return bs.n


def _bs_pair(group) -> tuple[int, int]:
    bs = _require(britton.BsParams, group)
    return bs.m, bs.n


# Per suite: what a --group becomes in the suite's first argument (None:
# --group is ignored), and the suite parameter each of --trials and
# --bound sets.  harness.suite_* holds the default of every flag left out.
VERIFY_SUITES = {
    "ct": (functools.partial(_require, MetabelianParams), {"trials": "trials"}),
    "oracle": (_oracle_k, {"trials": "trials"}),
    "z2": (_bs_pair, {"bound": "bound"}),
    "witnesses": (functools.partial(_require, MetabelianParams), {}),
    "bezout": (functools.partial(_require, MetabelianParams), {"bound": "k_max"}),
    "classify": (functools.partial(_require, MetabelianParams), {"trials": "trials"}),
    "gog": (None, {}),
}


def cmd_verify(args) -> int:
    groups = [_parse_group(g) for g in args.group or ()]
    convert, flags = VERIFY_SUITES[args.suite]
    chosen = [[convert(g) for g in groups]] if groups and convert else []
    given = {name: getattr(args, flag) for flag, name in flags.items()}
    given = {name: value for name, value in given.items() if value is not None}
    report = getattr(harness, f"suite_{args.suite}")(*chosen, seed=args.seed, **given)
    sys.stdout.write(report.to_json() if args.format == "structured" else report.to_text())
    return EXIT_OK if report.verdict == "pass" else EXIT_VERIFICATION_FAILED


# argparse wraps a long generated usage line differently across Python
# versions (3.13 changed it), so the verify usage is spelled out.
_USAGE_INDENT = " " * len("usage: baumslag verify ")
VERIFY_USAGE = f"\n{_USAGE_INDENT}".join(
    (
        "%(prog)s [-h] --suite",
        "{ct,oracle,z2,witnesses,bezout,classify,gog}",
        "[--group GROUP] [--trials TRIALS] [--seed SEED]",
        "[--bound BOUND] [--jobs JOBS]",
        "[--format {text,structured}]",
    )
)


# One parser per process.  It holds no handler: main looks up
# cmd_<command> in this module at call time, so a cmd_* rebound after
# the first call (a tracer, a test double) is the one that runs.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baumslag",
        description=(
            "Exact computation in Baumslag-Solitar groups BS(m,n), the "
            "metabelian groups G(m,n) = Z[1/mn] x| Z, and graphs of groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="output as human-readable text or JSON",
        )

    p = sub.add_parser("reduce", help="pinch-reduce a word over BS(m,n)")
    p.add_argument("--group", required=True, help="BS(m,n)")
    p.add_argument("--word", required=True, help="word over a, t")
    add_format(p)

    p = sub.add_parser("eval", help="evaluate a word over a, t in G(m,n)")
    p.add_argument("--group", required=True, help="G(m,n)")
    p.add_argument("--word", required=True, help="word over a, t")
    add_format(p)

    p = sub.add_parser("classify", help="classify the subgroup generated by two elements")
    p.add_argument("--group", required=True, help="G(m,n)")
    p.add_argument("--elems", required=True, help="two elements '(x, p); (y, q)'")
    add_format(p)

    p = sub.add_parser("witness", help="produce and verify a structural witness")
    p.add_argument("--group", required=True, help="G(m,n) or BS(m,n) for z2")
    p.add_argument("--kind", required=True, choices=("weak-ah", "csa", "z2"))
    p.add_argument("--bound", type=int, default=4, help="power bound for z2")
    add_format(p)

    p = sub.add_parser("cert", help="Bezout membership certificate for 1/m^k or 1/n^k")
    p.add_argument("--group", required=True, help="G(m,n)")
    p.add_argument("--target", required=True, help="'1/n^k' or '1/m^k'")
    add_format(p)

    p = sub.add_parser("pi1", help="fundamental group of a graph-of-groups file")
    p.add_argument("--input", required=True, help="graph-of-groups JSON file")
    p.add_argument(
        "--tree",
        default=None,
        help="comma-separated edge ids overriding the default spanning tree",
    )
    add_format(p)

    p = sub.add_parser("verify", help="run a verification suite", usage=VERIFY_USAGE)
    p.add_argument(
        "--suite",
        required=True,
        choices=tuple(VERIFY_SUITES),
    )
    p.add_argument(
        "--group",
        action="append",
        help="group (repeatable); suite-specific defaults when omitted",
    )
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", default="0")
    p.add_argument("--bound", type=int, default=None, help="z2 bound / bezout k max")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility and ignored: trials run in one thread",
    )
    add_format(p)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return EXIT_OK if err.code in (0, None) else EXIT_USAGE
    try:
        return globals()[f"cmd_{args.command}"](args)
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except GogValidationError as err:
        for violation in err.violations:
            print(f"invalid graph of groups: {violation}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
