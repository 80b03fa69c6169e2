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


def _document(args, word: Word, N, space, report, t0) -> dict:
    """The result document; timing counts the seconds since t0, the
    oracle evaluation included."""
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
        "timing": {"seconds": round(time.time() - t0, 3)},
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


def _pipeline(args, word: Word, N, order):
    """(space, report) of the pipeline the subcommand runs: the cube for
    vassiliev and for compare on a singular word, otherwise HOMFLY when
    N is None and sl(N) when it is finite."""
    window = _window(args)
    if args.command == "vassiliev" or (args.command == "compare"
                                       and word.is_singular):
        return vassiliev_complex(word, N=N, window=window, order=order)
    if N is None:
        return homfly_homology(word, window=window,
                               simplify=not args.no_simplify)
    return sln_homology(word, N, window=window, simplify=not args.no_simplify)


def _cmd_homology(args) -> tuple:
    """homfly-homology, sln-homology, vassiliev and compare."""
    word = Word.parse(args.word)
    N = _parse_n_flag(getattr(args, "N", None))
    if N is None and args.command == "sln-homology":
        raise ValueError("sln-homology wants a finite --N")
    order = getattr(args, "order", None)
    if order is not None:
        order = [int(t) for t in order.split(",") if t != ""]
    t0 = time.time()
    space, report = _pipeline(args, word, N, order)
    doc = _document(args, word, N, space, report, t0)
    if order is not None:
        doc["input"]["order"] = order
    if args.command == "compare" and doc["verdict"] != "match":
        return doc, EXIT_MISMATCH
    return doc, EXIT_OK


def _cmd_oracle(args) -> tuple:
    word = Word.parse(args.word)
    N = _parse_n_flag(args.N)
    doc = _document(args, word, N, None, None, time.time())
    if args.seed is not None and not word.is_singular:
        ok = oracle_self_test(word, seed=args.seed)
        doc["self_test"] = {"seed": args.seed, "passed": bool(ok)}
        if not ok:
            return doc, EXIT_INVARIANT
    return doc, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidhom",
        description="Triply graded braid-closure homology, sl(N) "
                    "specializations, categorified Vassiliev derivatives, "
                    "and an independent skein oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, text, func=_cmd_homology, window=True, simplify=False,
            n_flag=True, order_flag=False, seed_flag=False):
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        p.add_argument("word", help='braid word, e.g. "2: 1 1 1" '
                                    '(singular letters as "1!")')
        p.add_argument("--format", choices=("json", "text"),
                       default="text", help="output format")
        if window:
            p.add_argument("--max-degree", type=int, default=60,
                           help="internal-degree scan ceiling (default 60)")
            p.add_argument("--stabilization-margin", type=int, default=6,
                           help="trailing empty degrees demanded before "
                                "the scan stops (default 6)")
        if simplify:
            p.add_argument("--no-simplify", action="store_true",
                           help="skip column-level elimination (cube runs "
                                "always reduce their columns)")
        if n_flag:
            p.add_argument("--N", default=None,
                           help="specialization level (integer, or 'inf')")
        if order_flag:
            p.add_argument("--order", default=None,
                           help="singular slot order as comma-separated "
                                "indices, e.g. 1,0; validated and echoed, "
                                "it does not enter the differential")
        if seed_flag:
            p.add_argument("--seed", type=int, default=None,
                           help="run the randomized Markov self-test "
                                "with this seed")

    add("homfly-homology", "triply graded homology of a braid closure",
        simplify=True, n_flag=False)
    add("sln-homology", "sl(N) homology of a braid closure", simplify=True)
    add("vassiliev", "cube homology of a singular braid word",
        order_flag=True)
    add("oracle", "skein oracle value (alternating sum on singular words)",
        func=_cmd_oracle, window=False, seed_flag=True)
    add("compare", "run pipeline and oracle, exit 0 on exact Euler match",
        simplify=True)
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
