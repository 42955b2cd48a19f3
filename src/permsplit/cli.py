"""Batch command-line surface for reproduction runs.

One JSON line per subject on stdout, human diagnostics on stderr.  Exit codes
are the machine contract: 0 success, 1 verification failure or violated
precondition, 2 usage error.  Subjects stream from a file or stdin ("-"), one
per line, either as bare text or as JSON objects carrying "perm"/"arcs".
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache, partial
from multiprocessing import Pool
from typing import Callable, Iterable, Iterator

from .constructions import (
    classify_pattern,
    m_prime,
    n_minus,
    n_plus,
    tau_of,
    theorem_certificate,
    theorem_plan,
)
from .envelope import decode_envelope, envelope_of, reduced_envelope
from .errors import PreconditionError, VerificationError
from .matchings import Matching
from .oracle import verify_splitting
from .perms import (
    Permutation,
    contains,
    count_avoiders,
    decreasing,
    direct_sum,
    enumerate_avoiders,
    sum_block,
    sum_splits,
)
from .splitters import (
    SplittingSpec,
    circle_color,
    dilworth_matching_base,
    dilworth_split,
    greedy_three_sum,
    oneplus_split,
)

USAGE_ERROR = 2
FAILURE = 1
SUBJECT_ERRORS = (PreconditionError, VerificationError, ValueError)  # exit 1


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type for an integer option >= low; anything else is a usage
    error (exit 2) at parse time."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def parse_spec(text: str) -> SplittingSpec:
    """Comma-separated parts with optional multiplicity: "2*132,213"."""
    items = [item.strip() for item in text.split(",")]
    if not any(items):
        raise ValueError("empty splitting spec")
    parts = []
    for item in items:
        if not item:
            raise ValueError("empty part in splitting spec")
        mult_text, star, patt_text = item.partition("*")
        if star:
            mult = int(mult_text)
            pattern = Permutation.from_text(patt_text)
        else:
            mult = 1
            pattern = Permutation.from_text(item)
        parts.append((pattern, mult))
    return SplittingSpec(tuple(parts))


def _parse_basis(text: str) -> frozenset[Permutation]:
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(tokens):  # Av(ε) is empty, so only an explicit ε may mean ε
        raise ValueError(f"empty pattern in basis {text!r}")
    return frozenset(map(Permutation.from_text, tokens))


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _subject_lines(source: str) -> Iterator[str]:
    stream = sys.stdin if source == "-" else open(source, "r", encoding="utf-8")
    try:
        for line in stream:
            line = line.strip()
            if line:
                yield line
    finally:
        if source != "-":
            stream.close()


def _subject_text(line: str, key: str) -> str:
    """A bare subject line, or the `key` field of a JSON subject line."""
    if not line.startswith("{"):
        return line
    try:
        value = json.loads(line).get(key)
    except RecursionError:  # nesting deeper than the parser's recursion limit
        raise ValueError(f"JSON subject line nested too deeply for {key!r}") from None
    if not isinstance(value, str):
        raise ValueError(f"JSON subject line needs a string {key!r}: {line}")
    return value


def _guarded(fn: Callable, line: str):
    """fn(line), or the subject error it raised, returned as a value."""
    try:
        return fn(line)
    except SUBJECT_ERRORS as exc:
        return exc


def _map_stream(fn: Callable, lines: Iterable[str], jobs: int) -> Iterator[dict]:
    """Apply fn to each subject line; with --jobs > 1 the stream is partitioned
    across at most os.cpu_count() processes, results buffered back into input
    order.  A failure comes back as a value, raised after every earlier result
    of its chunk."""
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        yield from map(fn, lines)
        return
    with Pool(processes=jobs) as pool:
        for result in pool.imap(partial(_guarded, fn), lines, chunksize=16):
            if isinstance(result, Exception):
                raise result
            yield result


def _cmd_enumerate(args) -> int:
    basis = _parse_basis(args.avoid)
    if args.count:
        _emit({"n": args.n, "count": count_avoiders(basis, args.n)})
        return 0
    for p in enumerate_avoiders(basis, args.n):
        _emit({"perm": p.text()})
    return 0


def _cmd_contains(args) -> int:
    pattern = Permutation.from_text(args.pattern)
    host = Permutation.from_text(args.perm)
    emb = contains(pattern, host)
    _emit(
        {
            "contains": emb is not None,
            "embedding": list(emb.positions) if emb is not None else None,
        }
    )
    return 0


@lru_cache(maxsize=None)
def _splitter(method: str, pattern: Permutation) -> Callable:
    """subject -> certificate for `split --method`, built once per process;
    a pattern outside the method's domain raises here.  theorem routes
    through theorem_plan, the other methods force one splitter."""
    if method == "theorem":
        theorem_plan(pattern)  # raises for a pattern the theorem does not split
        return partial(theorem_certificate, pattern)
    n, splits = len(pattern), sum_splits(pattern)
    if method == "greedy3" and len(splits) >= 2:  # the forced route-b scan
        first, last = splits[0], splits[-1]
        ends = ((0, first), (first, last), (last, n))
        return partial(greedy_three_sum, *(sum_block(pattern, i, j) for i, j in ends))
    if method == "dilworth" and pattern == decreasing(n):
        return partial(dilworth_split, n)
    one_plus = n >= 3 and pattern == direct_sum(Permutation((1,)), decreasing(n - 1))
    if method == "oneplus" and one_plus:  # 1⊕(n-1)…1
        return partial(oneplus_split, decreasing(n - 1), dilworth_matching_base(n - 1))
    raise PreconditionError(f"--method {method} does not apply to {pattern.text()}")


def _split_one(method: str, pattern: Permutation, line: str) -> dict:
    p = Permutation.from_text(_subject_text(line, "perm"))
    return _splitter(method, pattern)(p).to_json_dict()


def _cmd_split(args) -> int:
    pattern = Permutation.from_text(args.pattern)
    _splitter(args.method, pattern)  # fails on the pattern before any input is read
    split = partial(_split_one, args.method, pattern)
    for result in _map_stream(split, _subject_lines(args.input), args.jobs):
        _emit(result)
    return 0


def _cmd_verify(args) -> int:
    basis = _parse_basis(getattr(args, "class"))
    spec = parse_spec(args.parts)
    report = verify_splitting(basis, spec, args.max_n)
    _emit(report.to_json_dict())
    return 0 if report.passed else FAILURE


def _cmd_classify(args) -> int:
    _emit(classify_pattern(Permutation.from_text(args.pattern)).to_json_dict())
    return 0


def _color_one(n: int, line: str) -> dict:
    m = Matching.from_text(_subject_text(line, "arcs"))
    coloring = circle_color(m, n)
    return {
        "arcs": m.text(),
        "colors": [coloring[arc] for arc in m.arcs],
        "colors_used": len(set(coloring.values())),
    }


def _cmd_color_matching(args) -> int:
    color = partial(_color_one, args.forbid_clique)
    for result in _map_stream(color, _subject_lines(args.input), args.jobs):
        _emit(result)
    return 0


def _cmd_envelope(args) -> int:
    if args.action == "encode":
        _emit(envelope_of(Permutation.from_text(args.arg)).to_json_dict())
    elif args.action == "decode":
        p = decode_envelope(Matching.from_text(args.arg))
        _emit({"perm": p.text() if p is not None else None})
    else:
        _emit({"arcs": reduced_envelope(Permutation.from_text(args.arg)).text()})
    return 0


def _cmd_construct(args) -> int:
    sigma = Permutation.from_text(args.sigma)
    if args.what == "nplus":
        _emit({"arcs": n_plus(sigma).text()})
    elif args.what == "nminus":
        _emit({"arcs": n_minus(sigma).text()})
    elif args.what == "mprime":
        _emit({"arcs": m_prime(sigma).text()})
    else:
        if args.matching is None:
            raise PreconditionError("construct tau needs --matching")
        _emit({"perm": tau_of(Matching.from_text(args.matching), sigma).text()})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permsplit",
        description="Splittings of pattern-avoiding permutation classes.",
    )
    parser.add_argument(
        "--jobs", type=_int_at_least(1), default=1, help="parallel workers for sweeps"
    )
    parser.add_argument("--seed", type=int, default=None, help="accepted and ignored")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list Av(basis) at one order")
    p.add_argument("--avoid", required=True, help="comma-separated basis patterns")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--count", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("contains", help="pattern containment with embedding")
    p.add_argument("pattern")
    p.add_argument("perm")
    p.set_defaults(fn=_cmd_contains)

    p = sub.add_parser("split", help="color subjects against a splitting")
    p.add_argument("--method", required=True, choices=["greedy3", "dilworth", "oneplus", "theorem"])
    p.add_argument("--pattern", required=True)
    p.add_argument("--input", default="-", help="subject file or - for stdin")
    p.set_defaults(fn=_cmd_split)

    p = sub.add_parser("verify", help="oracle sweep of a claimed splitting")
    p.add_argument("--class", required=True, help="comma-separated class basis")
    p.add_argument("--parts", required=True, help="splitting spec, e.g. 2*132,213")
    p.add_argument("--max-n", type=_int_at_least(0), required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("classify", help="splittability of Av(pattern)")
    p.add_argument("pattern")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("color-matching", help="properly color chord diagrams")
    p.add_argument("--forbid-clique", type=_int_at_least(1), required=True)
    p.add_argument("--input", default="-")
    p.set_defaults(fn=_cmd_color_matching)

    p = sub.add_parser("envelope", help="envelope encode/decode/reduce")
    p.add_argument("action", choices=["encode", "decode", "reduce"])
    p.add_argument("arg")
    p.set_defaults(fn=_cmd_envelope)

    p = sub.add_parser("construct", help="witness constructions")
    p.add_argument("what", choices=["nplus", "nminus", "mprime", "tau"])
    p.add_argument("--sigma", required=True)
    p.add_argument("--matching", default=None)
    p.set_defaults(fn=_cmd_construct)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BrokenPipeError:
        sys.stderr.close()
        return 0
    except OSError as exc:  # an --input file that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SUBJECT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
