"""Command-line interface and machine-readable result documents.

Subcommands: homfly-homology, sln-homology, vassiliev, oracle, compare.
Every run produces one result document with the same top-level keys —
input, conventions, table, euler, oracle, verdict, timing — rendered as
JSON or as aligned text.  Polynomials appear as exponent-pair-to-
coefficient maps ("e_a,e_q" keys), so documents round-trip through
json.loads/json.dumps losslessly.

Exit codes: 0 success (and, for compare, an exact Euler match);
1 comparison mismatch; 2 input error (bad flags, malformed words,
out-of-domain requests); 3 internal invariant violation (a failed
consistency assertion inside the pipelines — never expected on valid
input and always worth reporting).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .braid import Word
from .conventions import (conventions_block, homology_euler_as_skein,
                          match_exact, match_up_to_monomial,
                          oracle_specialized, sln_euler)
from .homology import DegreeWindow, check_N, homfly_homology
from .mfact import sln_homology
from .oracle import homfly_oracle, oracle_self_test, vassiliev_oracle
from .wallcross import vassiliev_complex

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3


def _parse_n_flag(text):
    if text in (None, "inf", "infinity", "oo"):
        return None
    try:
        val = int(text)
    except ValueError:
        raise ValueError(f"--N wants a positive integer or 'inf', got {text!r}")
    return check_N(val)


def _window(args) -> DegreeWindow:
    return DegreeWindow(max_degree=args.max_degree,
                        margin=args.stabilization_margin)


def _oracle_value(word: Word):
    return vassiliev_oracle(word) if word.is_singular else homfly_oracle(word)


def _oracle_json(value) -> dict:
    return {"poly": value.poly.json_dict(),
            "denominator_power": value.denom}


def _verdict(euler, value, N):
    """Compare a pipeline Euler characteristic against the oracle.

    Returns (verdict string or None, detail dict).  None means no
    comparison is defined for this configuration (link closures with a
    genuine skein denominator).
    """
    if not value.is_polynomial:
        return None, {"reason": "oracle value has a skein denominator"}
    target = value.poly if N is None else oracle_specialized(value, N)
    if match_exact(euler, target):
        return "match", {}
    mono = match_up_to_monomial(euler, target) if euler and target else None
    if mono:
        sign, (e1, e2) = mono
        return "match_up_to_monomial", {"sign": sign, "monomial": [e1, e2]}
    return "mismatch", {}


def _document(args, word: Word, N, space, report, elapsed) -> dict:
    euler = None
    oracle_doc = None
    verdict = None
    detail = {}
    if space is not None:
        euler = homology_euler_as_skein(space) if N is None \
            else sln_euler(space)
    value = _oracle_value(word)
    oracle_doc = _oracle_json(value)
    if N is not None and value.is_polynomial:
        oracle_doc["specialized"] = oracle_specialized(value, N).json_dict()
    if space is not None:
        if word.is_singular and N is not None:
            # collapsed weight-blind grading: no oracle comparison defined
            verdict, detail = None, {
                "reason": "finite-N cube tables use the collapsed "
                          "weight-blind grading"}
        else:
            verdict, detail = _verdict(euler, value, N)
    doc = {
        "input": {"word": str(word), "n": word.n,
                  "N": "inf" if N is None else N},
        "conventions": conventions_block(N),
        "table": space.table() if space is not None else [],
        "euler": euler.json_dict() if euler is not None else None,
        "oracle": oracle_doc,
        "verdict": verdict,
        "timing": {"seconds": round(elapsed, 3)},
    }
    if detail:
        doc["verdict_detail"] = detail
    if report is not None:
        doc["stabilized"] = bool(report.get("stabilized"))
        warnings = report.get("warnings") or []
        if warnings:
            doc["warnings"] = list(warnings)
    return doc


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2)
    lines = [f"input     {doc['input']['word']}   (N = {doc['input']['N']})"]
    if doc["table"]:
        lines.append("table     k    i    j  dim")
        for k, i, j, d in doc["table"]:
            lines.append(f"       {k:4d} {i:4d} {j:4d} {d:4d}")
    else:
        lines.append("table     (empty)")
    if doc["euler"] is not None:
        lines.append(f"euler     {doc['euler']}")
    if doc["oracle"] is not None:
        lines.append(f"oracle    {doc['oracle']['poly']}"
                     + (f"  / delta^{doc['oracle']['denominator_power']}"
                        if doc['oracle']['denominator_power'] else ""))
    lines.append(f"verdict   {doc['verdict']}")
    if "warnings" in doc:
        for w in doc["warnings"]:
            lines.append(f"warning   {w}")
    lines.append(f"time      {doc['timing']['seconds']}s")
    return "\n".join(lines)


def _cmd_homfly(args) -> tuple:
    word = Word.parse(args.word)
    t0 = time.time()
    space, report = homfly_homology(word, window=_window(args),
                                    simplify=not args.no_simplify)
    doc = _document(args, word, None, space, report, time.time() - t0)
    return doc, EXIT_OK


def _cmd_sln(args) -> tuple:
    word = Word.parse(args.word)
    N = _parse_n_flag(args.N)
    if N is None:
        raise ValueError("sln-homology wants a finite --N")
    t0 = time.time()
    space, report = sln_homology(word, N, window=_window(args),
                                 simplify=not args.no_simplify)
    doc = _document(args, word, N, space, report, time.time() - t0)
    return doc, EXIT_OK


def _cmd_vassiliev(args) -> tuple:
    word = Word.parse(args.word)
    N = _parse_n_flag(args.N)
    order = None
    if args.order is not None:
        order = [int(t) for t in args.order.split(",") if t != ""]
    t0 = time.time()
    space, report = vassiliev_complex(word, N=N, window=_window(args),
                                      order=order)
    doc = _document(args, word, N, space, report, time.time() - t0)
    if order is not None:
        doc["input"]["order"] = order
    return doc, EXIT_OK


def _cmd_oracle(args) -> tuple:
    word = Word.parse(args.word)
    N = _parse_n_flag(args.N)
    t0 = time.time()
    value = _oracle_value(word)
    doc = {
        "input": {"word": str(word), "n": word.n,
                  "N": "inf" if N is None else N},
        "conventions": conventions_block(N),
        "table": [],
        "euler": None,
        "oracle": _oracle_json(value),
        "verdict": None,
        "timing": {"seconds": round(time.time() - t0, 3)},
    }
    if N is not None and value.is_polynomial:
        doc["oracle"]["specialized"] = oracle_specialized(value, N).json_dict()
    if args.seed is not None and not word.is_singular:
        ok = oracle_self_test(word, seed=args.seed)
        doc["self_test"] = {"seed": args.seed, "passed": bool(ok)}
        if not ok:
            return doc, EXIT_INVARIANT
    return doc, EXIT_OK


def _cmd_compare(args) -> tuple:
    word = Word.parse(args.word)
    N = _parse_n_flag(args.N)
    t0 = time.time()
    if word.is_singular:
        space, report = vassiliev_complex(word, N=N, window=_window(args))
    elif N is None:
        space, report = homfly_homology(word, window=_window(args),
                                        simplify=not args.no_simplify)
    else:
        space, report = sln_homology(word, N, window=_window(args),
                                     simplify=not args.no_simplify)
    doc = _document(args, word, N, space, report, time.time() - t0)
    code = EXIT_OK if doc["verdict"] == "match" else EXIT_MISMATCH
    return doc, code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidhom",
        description="Triply graded braid-closure homology, sl(N) "
                    "specializations, categorified Vassiliev derivatives, "
                    "and an independent skein oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_flag=False, order_flag=False, seed_flag=False):
        p.add_argument("word", help='braid word, e.g. "2: 1 1 1" '
                                    '(singular letters as "1!")')
        p.add_argument("--max-degree", type=int, default=60,
                       help="internal-degree scan ceiling (default 60)")
        p.add_argument("--stabilization-margin", type=int, default=6,
                       help="trailing empty degrees demanded before the "
                            "scan stops (default 6)")
        p.add_argument("--no-simplify", action="store_true",
                       help="skip column-level elimination (cube runs "
                            "are always raw)")
        p.add_argument("--format", choices=("json", "text"),
                       default="text", help="output format")
        if n_flag:
            p.add_argument("--N", default=None,
                           help="specialization level (integer, or 'inf')")
        if order_flag:
            p.add_argument("--order", default=None,
                           help="cone order as comma-separated singular "
                                "slot indices, e.g. 1,0")
        if seed_flag:
            p.add_argument("--seed", type=int, default=None,
                           help="run the randomized Markov self-test "
                                "with this seed")

    p = sub.add_parser("homfly-homology",
                       help="triply graded homology of a braid closure")
    common(p)
    p.set_defaults(func=_cmd_homfly)

    p = sub.add_parser("sln-homology",
                       help="sl(N) homology of a braid closure")
    common(p, n_flag=True)
    p.set_defaults(func=_cmd_sln)

    p = sub.add_parser("vassiliev",
                       help="cube homology of a singular braid word")
    common(p, n_flag=True, order_flag=True)
    p.set_defaults(func=_cmd_vassiliev)

    p = sub.add_parser("oracle",
                       help="skein oracle value (alternating sum on "
                            "singular words)")
    common(p, n_flag=True, seed_flag=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("compare",
                       help="run pipeline and oracle, exit 0 on exact "
                            "Euler match")
    common(p, n_flag=True)
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = args.func(args)
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    print(_render(doc, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
