"""Batch command line: build posets, check standardness, enumerate, verify.

One binary with subcommands; jobs come from flags or a JSON job file, results
go to --out (or stdout) as JSON, or as DOT for the poset commands.  Exit
codes: 0 success, 1 verification failure or failed internal invariant,
2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import suppress
from functools import cache

from . import io as lsio
from .dcp import (
    InvariantError,
    Setup,
    build_dcp_inductive,
    build_index_poset,
    chain_criteria,
    chain_iposet,
    direct_nodes,
    powerset_iposet,
    UnderlineW,
)
from .demazure import demazure_character
from .fan import (
    count_fan_degree,
    degree_grid,
    enumerate_fan_degree,
    multidegree_conjecture_check,
    theta_d,
    theta_d_inverse,
)
from .tableaux import walk_standard
from .weyl import make_group


def _ints(value, what: str) -> tuple[int, ...]:
    """A string 'a,b,...' or a list of integers as a tuple of ints; raises
    ValueError naming the field `what` for anything else."""
    if isinstance(value, str):
        try:
            return tuple(int(x) for x in value.split(","))
        except ValueError:
            pass
    elif isinstance(value, list) and all(type(x) is int for x in value):
        return tuple(value)
    raise ValueError(f"{what} {value!r} is not a list of integers")


def _int(job: dict, key: str, default=None) -> int:
    """The job entry `key` (or `default` when it is absent or null) as an
    int; raises ValueError if it is not one."""
    value = default if job.get(key) is None else job[key]
    if type(value) is not int:
        raise ValueError(f"{key} {value!r} is not an integer")
    return value


def _bound(value, what: str) -> int:
    """A degree bound: an int that range(bound + 1) takes; ValueError for anything else."""
    if type(value) is not int or not 0 <= value < sys.maxsize:
        raise ValueError(f"{what} {value!r} is not an integer in 0..{sys.maxsize - 1}")
    return value


def _flag_bound(value: str) -> int:
    """The type of a bound flag (a rank, a size guard or a degree bound): a
    string that int() parses to a bound that `_bound` takes."""
    try:
        return _bound(int(value), "bound")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{value!r} is not an integer in 0..{sys.maxsize - 1}") from None


def _int_lists(value, what: str) -> list[tuple[int, ...]]:
    """A string 'a,b;c,d;...' or a list of lists as a list of int tuples."""
    if isinstance(value, str):
        return [_ints(part, what) for part in value.split(";") if part]
    if isinstance(value, list):
        return [_ints(part, what) for part in value]
    raise ValueError(f"{what}s {value!r} are neither a string nor a list")


def _load_job(args) -> dict:
    job = {}
    if getattr(args, "job", None):
        with open(args.job) as fh:
            job = json.load(fh)
        if not isinstance(job, dict):
            raise ValueError(f"job file {args.job} does not hold a JSON object")
    flags = {key: value for key in ("type", "rank", "size_guard", "lambdas", "tau",
                                     "iposet", "degree", "max_total_degree")
             if (value := getattr(args, key, None)) is not None}
    if flags.keys() & {"degree", "max_total_degree"}:  # one flag replaces both entries
        job.pop("degree", None)
        job.pop("max_total_degree", None)
    return job | flags


def _setup_from_job(job: dict) -> Setup:
    for key in ("type", "rank", "lambdas", "tau", "iposet"):
        if key not in job:
            raise ValueError(f"job is missing '{key}'")
    if not isinstance(job["type"], str):
        raise ValueError(f"type {job['type']!r} is not a string")
    group = make_group(job["type"], _int(job, "rank"), _int(job, "size_guard", 1152))
    lambdas = _int_lists(job["lambdas"], "--lambda weight")
    if not lambdas:
        raise ValueError("--lambda needs at least one weight")
    m = len(lambdas)
    iposet = job["iposet"]
    if iposet == "chain":
        iposet = chain_iposet(m)
    elif iposet == "powerset":
        iposet = powerset_iposet(m)
    else:
        sets = [frozenset(s) for s in _int_lists(iposet, "--iposet set")]
        iposet = build_index_poset(sets, m)
    tau = job["tau"]
    tau_elt = group.longest if tau == "w0" else group.from_word(_ints(tau, "--tau word"))
    return Setup(group, lambdas, tau_elt, iposet)


def _degrees_from_job(job: dict, m: int) -> list[tuple[int, ...]]:
    raw, bound = job.get("degree"), job.get("max_total_degree")
    if raw is not None and bound is not None:
        raise ValueError("job entry 'max_total_degree' not allowed with entry 'degree'")
    if bound is not None:
        bound = _bound(_int(job, "max_total_degree"), "max_total_degree")
        degrees = degree_grid(m, bound)[1:]  # all but the zero degree, the first
    elif isinstance(raw, list) and not (raw and isinstance(raw[0], list)):
        degrees = [_ints(raw, "--degree vector")]
    else:
        degrees = [] if raw is None else _int_lists(raw, "--degree vector")
    for d in degrees:
        if len(d) != m:
            raise ValueError(f"degree {d} does not match the weight count {m}")
        if min(d) < 0:
            raise ValueError(f"degree {d} has the negative entry {min(d)}")
    return degrees


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_dcp(args, job: dict, setup: Setup) -> int:
    dcp = build_dcp_inductive(setup)
    if setup.is_w0_instance():
        # both builds take their covers from the one cover rule, so they
        # agree iff the direct node test selects the inductive nodes
        if sorted(n.key for n in direct_nodes(setup)) != sorted(dcp.position):
            raise InvariantError("the inductive and the direct constructions differ")
    if args.format == "dot":
        _emit(args, lsio.dcp_to_dot(dcp))
    else:
        _emit(args, lsio.dumps(lsio.dcp_to_json(dcp)))
    bonds = "all bonds 1" if dcp.big_l == 1 else "bonds > 1 present"
    edges = sum(map(len, dcp.covers_down))
    print(f"dcp: {len(dcp.reps)} nodes, {edges} edges, {bonds}", file=sys.stderr)
    return 0


def cmd_underline_w(args, job: dict, setup: Setup) -> int:
    uw = UnderlineW(setup)
    if args.format == "dot":
        _emit(args, lsio.underline_w_to_dot(uw))
    else:
        _emit(args, lsio.dumps(lsio.underline_w_to_json(uw)))
    return 0


def cmd_check(args, job: dict, setup: Setup) -> int:
    dcp = build_dcp_inductive(setup)
    report, group = dcp.standardness, setup.group
    data = {
        "tau_standard": report.standard,
        "collisions": [
            [
                {
                    "theta": lsio.word_of(group, n.theta.rep),
                    "I": sorted(n.iset),
                }
                for n in pair
            ]
            for pair in report.collisions
        ],
    }
    if report.criteria is not None:
        data["criteria"] = [
            {
                "I": sorted(s),
                "chain": [sorted(t) for t in chain],
                **values,
            }
            for (s, chain), values in chain_criteria(dcp).items()  # in member order
        ]
        data["criteria_agree"] = report.criteria_agree
    _emit(args, lsio.dumps(data))
    verdict = "tau-standard" if report.standard else "NOT tau-standard"
    print(f"check: index poset is {verdict}", file=sys.stderr)
    return 0


def cmd_enumerate(args, job: dict, setup: Setup) -> int:
    degrees = _degrees_from_job(job, setup.m)
    if len(degrees) != 1:
        raise ValueError("enumerate needs exactly one --degree")
    dcp = build_dcp_inductive(setup)
    keys = [key for key, _ in walk_standard(dcp, degrees[0])]
    ids, columns, terms = lsio.dcp_node_ids(dcp), {}, {}
    data = {
        "degree": list(degrees[0]),
        "count": len(keys),
        "tableaux": [lsio.tableau_to_json(dcp, key, columns) for key in keys],
        "fan_vectors": [lsio.fan_vector_to_json(dcp, ids, theta_d(dcp, key), terms)
                        for key in keys],
    }
    _emit(args, lsio.dumps(data))
    return 0


def _degree_key(degree) -> str:
    return ",".join(map(str, degree))


def _sides_by_degree(report) -> dict:
    """The left and right sides of a multidegree report, keyed by 'a,b,...'."""
    return {
        side: {_degree_key(k): v for k, v in report[side].items()}
        for side in ("left", "right")
    }


def _check(name: str, degree, ok: bool, detail: dict) -> dict:
    """One entry of verify's "checks" list."""
    return {"check": name, "degree": degree, "pass": ok, "detail": detail}


def _verify_checks(setup: Setup, degrees, conjecture_bound=None):
    dcp = build_dcp_inductive(setup)
    checks = []
    for d in degrees:
        char = demazure_character(setup.group, setup.weight(d), setup.tau)
        dim = sum(char.values())
        # one streamed pass over the tableau keys: each tableau's end point
        # and theta round trip
        tableaux, round_trip, endpoints = 0, True, Counter()
        for key, end in walk_standard(dcp, d, endpoints=True):
            tableaux += 1
            endpoints[end] += 1
            try:
                if theta_d_inverse(dcp, theta_d(dcp, key)) == key:
                    continue
            except ValueError:  # raised, say, for a vector outside the fan
                pass
            round_trip = False
        vectors = count_fan_degree(dcp, d)
        # onto: theta_d^-1 takes fan members only, so with the round trip
        # the images are distinct fan vectors, and onto is equal counts;
        # otherwise compare the image set, less the tableaux whose theta_d
        # raises, with the listed fan vectors
        onto = tableaux == vectors
        if not round_trip:
            images = set()
            for key, _ in walk_standard(dcp, d):
                with suppress(ValueError):
                    images.add(theta_d(dcp, key))
            onto = images == set(enumerate_fan_degree(dcp, d))
        detail = {"tableaux": tableaux, "fan_vectors": vectors, "demazure_dimension": dim}
        checks += [
            _check("counting", list(d), tableaux == dim == vectors, detail),
            _check("character", list(d), dict(endpoints) == char, {"weights": len(char)}),
            _check("theta_bijection", list(d), round_trip and onto,
                   {"round_trip": round_trip, "onto": onto}),
        ]
    if conjecture_bound is not None:
        report = multidegree_conjecture_check(dcp, conjecture_bound)
        checks.append(_check("multidegree_conjecture", None, report["agree"],
                             _sides_by_degree(report)))
    return checks


def cmd_verify(args, job: dict, setup: Setup) -> int:
    degrees = _degrees_from_job(job, setup.m)
    if not degrees and args.conjecture is None:
        data = {"ok": True, "checks": [], "warning": "empty degree grid"}
        _emit(args, lsio.dumps(data))
        print("verify: vacuous pass (empty degree grid)", file=sys.stderr)
        return 0
    checks = _verify_checks(setup, degrees, args.conjecture)
    identity_failures = [
        c for c in checks if not c["pass"] and c["check"] != "multidegree_conjecture"
    ]
    ok = not identity_failures
    data = {"ok": ok, "checks": checks}
    _emit(args, lsio.dumps(data))
    if identity_failures:
        first = identity_failures[0]
        print(
            f"verify: FAILED {first['check']} at degree {first['degree']}: "
            f"{first['detail']}",
            file=sys.stderr,
        )
        return 1
    print(f"verify: all {len(checks)} checks passed", file=sys.stderr)
    return 0


def cmd_conjecture(args, job: dict, setup: Setup) -> int:
    dcp = build_dcp_inductive(setup)
    bound = _bound(_int(job, "max_total_degree", setup.tau.rank), "max_total_degree")
    report = multidegree_conjecture_check(dcp, bound)
    data = {
        "dimension": report["dimension"],
        **_sides_by_degree(report),
        "agree": report["agree"],
        "mismatches": [_degree_key(k) for k in report["mismatches"]],
    }
    _emit(args, lsio.dumps(data))
    verdict = "agree" if report["agree"] else "DISAGREE"
    print(f"conjecture: chain-bond sums and Hilbert multidegrees {verdict}",
          file=sys.stderr)
    return 0


def _add_common(sub):
    sub.add_argument("--job", help="JSON job file; flags override its entries")
    sub.add_argument("--type", help="Dynkin type A..G")
    sub.add_argument("--rank", type=_flag_bound)
    sub.add_argument(
        "--lambda",
        dest="lambdas",
        help="weights in omega-coordinates, e.g. '1,0,0;0,0,1;0,1,0'",
    )
    sub.add_argument("--tau", help="word '2,1' with letters in 1..rank, or 'w0'")
    sub.add_argument("--iposet", help="'chain', 'powerset', or sets '1;1,2;1,2,3'")
    sub.add_argument("--size-guard", dest="size_guard", type=_flag_bound)
    sub.add_argument("--out", help="output path (default: stdout)")


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, which main reports in one line."""

    def error(self, message):
        raise ValueError(message)


@cache
def _parser() -> _Parser:
    """The command-line parser, built once per process."""
    parser = _Parser(
        prog="lsfan",
        description="defining chain posets, LS-tableaux and the LS-fan of monoids",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, func, text in (
        ("dcp", cmd_dcp, "build the defining chain poset"),
        ("underline-w", cmd_underline_w, "build the coset-pair poset"),
        ("check", cmd_check, "tau-standardness of the index poset"),
        ("enumerate", cmd_enumerate, "standard tableaux of one degree"),
        ("verify", cmd_verify, "counting/character/theta identity suite"),
        ("conjecture", cmd_conjecture, "multidegree conjecture report"),
    ):
        subs[name] = sub = commands.add_parser(name, help=text)
        _add_common(sub)
        sub.set_defaults(func=func)
        if name in ("dcp", "underline-w"):
            sub.add_argument("--format", choices=["json", "dot"], default="json")
    subs["enumerate"].add_argument("--degree", help="degree vector 'd1,...,dm'")
    degrees = subs["verify"].add_mutually_exclusive_group()
    degrees.add_argument("--degree", help="degree grid 'd1,...,dm[;...]'")
    degrees.add_argument(
        "--max-total-degree",
        dest="max_total_degree",
        type=_flag_bound,
        help="use all degrees of total degree up to this bound",
    )
    subs["verify"].add_argument(
        "--conjecture",
        type=_flag_bound,
        help="also run the multidegree comparison with this fit bound",
    )
    subs["conjecture"].add_argument(
        "--max-total-degree",
        dest="max_total_degree",
        type=_flag_bound,
        help="degree bound of the grid the Hilbert multidegrees are read "
        "and checked on (default: dim X_tau)",
    )
    return parser


def main(argv=None) -> int:
    """Run one command; an error is one stderr line, exit 2 (input) or 1 (invariant)."""
    try:
        args = _parser().parse_args(argv)
        job = _load_job(args)
        return args.func(args, job, _setup_from_job(job))
    except (ValueError, OSError, KeyError, InvariantError) as exc:
        print("error:", " ".join(str(exc).splitlines()), file=sys.stderr)
        return 1 if isinstance(exc, InvariantError) else 2


if __name__ == "__main__":
    sys.exit(main())
