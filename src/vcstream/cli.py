"""Command-line entry point: gen | kernelize | solve | verify.

Every run prints a machine-parseable report, one key=value per token.
Exit codes: 0 YES/success, 1 NO (or disagreement under verify), 2 usage
error, 3 runtime error. A flag given to a route that does not read it is a
usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import __version__
from .brute import brute_min_deletion, brute_min_oct
from .errors import VCStreamError
from .graph import VertexCover, path_graph
from .instances import (
    DoubleFanSpec,
    PlantedSpec,
    format_instance,
    gen_double_fan,
    gen_planted,
    load_family,
    load_instance,
)
from .kernel_adjacency import (
    kernel_largest_induced,
    kernel_partition_q,
    kernel_pifree,
    reduce_str,
)
from .kernel_lowrank import kernel_by_rank, low_rank_reduce_str
from .meters import MemoryMeter
from .properties import (
    AdjacencyCharacterization,
    ExplicitFamily,
    family_oracle,
    parse_pfun,
)
from .solve_cvd import solve_cvd
from .solve_hfree import solve_pifree_explicit
from .solve_oct import solve_oct, solve_oct_cc
from .solve_oracle import solve_equivclass_enum, solve_with_a1, solve_with_a2
from .streams import AL, make_stream

BUDGET_ENV = "VCSTREAM_WORD_BUDGET"
REQUIRED = object()  # the default of a flag that its route cannot run without


def _instance_hash(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]


def _checked(cast, ok, what: str):
    def parse(text: str):
        try:
            if ok(value := cast(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")

    return parse


_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_probability = _checked(float, lambda v: 0.0 <= v <= 1.0, "a probability in [0, 1]")


class UsageError(Exception):
    pass


class Route(NamedTuple):
    """One route: the flags it reads (dest -> default), its call on the run's
    namespace, and what it adds to the report and to a kernel file's header."""

    name: str  # the route as messages name it
    flags: dict
    call: Callable
    report: Callable = lambda r: {}
    header: tuple = ()
    budget: Callable | None = None  # the deletion budget a kernel keeps witnesses for
    needs: tuple = ()  # (flag, the flag without which the route does not read it)


def _gen_double_fan(r):
    pattern = load_family(r.family).members[0]
    spec = DoubleFanSpec(pattern, r.split, r.centers, r.x, r.y, attach_all_neighbors=r.attach_all)
    g, cover, expected = gen_double_fan(spec)
    return g, cover, 0, [
        f"gen=doublefan split={r.split} centers={r.centers}",
        f"x={r.x} y={r.y} expected={'YES' if expected else 'NO'}",
    ]


def _char(r) -> AdjacencyCharacterization | None:
    """The characterization (c_pi, p) the user supplies, if any. Without
    --pfun, p is a placeholder, max(1, K): hfree consumes only the
    (c_pi + 1) * K member bound."""
    if r.cpi is None:
        return None
    p = parse_pfun(r.pfun) if r.pfun is not None else lambda K: max(1, K)
    return AdjacencyCharacterization(r.cpi, p, connected_only=True)


def _low_rank(r):
    if r.ell < 1:  # a round count here, not a deletion budget
        raise UsageError("--alg lowrank needs --ell of at least 1")
    return low_rank_reduce_str(r.handle, r.cover, r.ell, r.c, r.meter)


# the three wraps that consume a characterization (c_pi, p) the user supplies
_CHAR_FLAGS = {"cpi": REQUIRED, "pfun": REQUIRED}
_USER_CHAR = {
    "report": lambda r: {"cpi": r.cpi, "pfun": r.pfun, "char": "user-supplied"},
    "header": ("characterization supplied by user, not verified",),
}
_FAMILY_NU = {"family": REQUIRED, "nu": None}
# the flags that every route of a subcommand reads
SHARED = {
    "gen": {"output": None},
    "kernelize": {"instance": REQUIRED, "output": None},
    "solve": {"instance": REQUIRED, "ell": None},
}

# keyed by the subcommand, then gen's kind, kernelize's (--alg, --wrap) or
# solve's (--problem, --oracle); verify runs solve's routes.  A call looks its
# function up when it runs, so a patched module name takes effect.  A default
# of None for --ell or --nu stands for the instance's ell or the family's nu.
ROUTES = {
    ("gen", "planted"): Route(
        "gen planted", {"n": 20, "k": 4, "p": 0.3, "seed": 0, "ell": 1},
        lambda r: (*gen_planted(PlantedSpec(r.n, r.k, r.p, r.seed, r.ell)), r.ell,
                   [f"seed={r.seed}", f"gen=planted p={r.p}"])),
    ("gen", "doublefan"): Route(
        "gen doublefan",
        {"family": REQUIRED, "split": 1, "centers": 3, "x": "101", "y": "010",
         "attach_all": False},
        _gen_double_fan),
    ("kernelize", "reduce", None): Route(
        "--alg reduce", {"r": REQUIRED, "c": REQUIRED},
        lambda r: reduce_str(r.handle, r.cover, r.r, r.c, r.meter)),
    ("kernelize", "reduce", "pifree"): Route(
        "--alg reduce --wrap pifree", {"ell": None, **_CHAR_FLAGS},
        lambda r: kernel_pifree(r.handle, r.cover, r.ell, _char(r), r.meter),
        budget=lambda r: r.ell, **_USER_CHAR),
    ("kernelize", "reduce", "largest"): Route(
        "--alg reduce --wrap largest", _CHAR_FLAGS,
        lambda r: kernel_largest_induced(r.handle, r.cover, _char(r), r.meter),
        budget=lambda r: 0, **_USER_CHAR),  # the pifree kernel at ell = 0
    ("kernelize", "reduce", "partition"): Route(
        "--alg reduce --wrap partition", {"q": 1, **_CHAR_FLAGS},
        lambda r: kernel_partition_q(r.handle, r.cover, r.q, _char(r), r.meter), **_USER_CHAR),
    ("kernelize", "lowrank", None): Route(
        "--alg lowrank", {"ell": REQUIRED, "c": REQUIRED}, _low_rank),
    ("kernelize", "lowrank", "rankc"): Route(
        "--alg lowrank --wrap rankc", {"k": REQUIRED, "p": REQUIRED, "c": REQUIRED},
        lambda r: kernel_by_rank(r.handle, r.cover, r.k, r.p, r.c, r.meter),
        budget=lambda r: r.k),
    ("solve", "cvd", None): Route(
        "--problem cvd", {"cache_cover": False},
        lambda r: solve_cvd(r.handle, r.cover, r.ell, r.meter, cache_cover=r.cache_cover),
        report=lambda r: {"profile": "cached-cover"} if r.cache_cover else {}),
    ("solve", "oct", None): Route(
        "--problem oct", {"cc": False, "low_mem": False},
        lambda r: solve_oct_cc(r.handle, r.cover, r.ell, r.meter, low_mem=r.low_mem)
        if r.cc or r.low_mem else solve_oct(r.handle, r.cover, r.ell, r.meter)),
    ("solve", "hfree", None): Route(
        "--problem hfree", {"family": REQUIRED, "cpi": None, "pfun": None},
        lambda r: solve_pifree_explicit(r.handle, r.cover, r.ell, r.family, _char(r), r.meter),
        report=lambda r: {} if r.cpi is None else {"cpi": r.cpi, "char": "user-supplied"},
        needs=(("pfun", "cpi"),)),
    ("solve", "pifree-oracle", "a1"): Route(
        "--problem pifree-oracle --oracle a1", _FAMILY_NU,
        lambda r: solve_with_a1(
            r.handle, r.cover, r.ell, r.nu, family_oracle(r.family, "a1"), r.meter)),
    ("solve", "pifree-oracle", "a2"): Route(
        "--problem pifree-oracle --oracle a2", _FAMILY_NU,
        lambda r: solve_with_a2(
            r.handle, r.cover, r.ell, r.nu, family_oracle(r.family, "a2"), "plain", r.meter)),
    ("solve", "pifree-oracle", "a1sub"): Route(
        "--problem pifree-oracle --oracle a1sub", _FAMILY_NU,
        lambda r: solve_with_a2(
            r.handle, r.cover, r.ell, r.nu, family_oracle(r.family, "a1"), "a1_subsets", r.meter)),
    ("solve", "pifree-oracle", "ecenum"): Route(
        "--problem pifree-oracle --oracle ecenum", {"family": REQUIRED},
        lambda r: solve_equivclass_enum(
            r.handle, r.cover, family_oracle(r.family, "a2"), r.ell, r.meter)),
}
ROUTES["solve", "pifree-oracle", None] = ROUTES["solve", "pifree-oracle", "a2"]


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _route(given: dict, command: str, *keys: str):
    """The row that the `keys` flags of `given` pick, and a namespace of
    every flag it reads, as given or at the row's default. Refuses a given
    flag that the row does not read, and a missing one that it needs; then
    loads the instance, and the family file if the row reads one, with an
    AL stream and a fresh meter."""
    key = (command, *(given.get(k) for k in keys))
    if key not in ROUTES:  # only the last key flag can pick a missing row
        base = ROUTES[key[:-1] + (None,)]
        raise UsageError(f"{_flag(keys[-1])} {key[-1]} does not apply to {base.name}")
    row = ROUTES[key]
    reads = {**SHARED[command], **row.flags}
    for dest in given:
        if dest not in reads and dest not in keys:
            raise UsageError(f"{_flag(dest)} does not apply to {row.name}")
    for dest, other in row.needs:
        if dest in given and other not in given:
            raise UsageError(f"{_flag(dest)} does not apply to {row.name} without {_flag(other)}")
    flags = {**reads, **given}
    missing = [_flag(dest) for dest, value in flags.items() if value is REQUIRED]
    if missing:
        raise UsageError(f"{row.name} needs {' and '.join(missing)}")
    r = SimpleNamespace(**flags)
    if command == "gen":
        return row, r
    r.inst = inst = load_instance(r.instance)
    r.cover = inst.cover
    r.handle = make_stream(inst.graph, AL)
    budget = os.environ.get(BUDGET_ENV)
    try:
        r.meter = MemoryMeter(_non_negative_int(budget) if budget else None)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{BUDGET_ENV} {exc}") from None
    if getattr(r, "ell", 0) is None:
        r.ell = inst.ell
    if hasattr(r, "family"):
        r.family = load_family(r.family)
    if getattr(r, "nu", 0) is None:
        r.nu = r.family.nu
    return row, r


def _emit(report: dict) -> None:
    print(" ".join(f"{k}={v}" for k, v in report.items()))


def _write(output: str | None, text: str) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(given: dict) -> int:
    row, r = _route(given, "gen", "kind")
    g, cover, ell, comments = row.call(r)
    _write(r.output, format_instance(g, cover, ell, comments))
    if r.output:
        _emit({"wrote": r.output, "n": g.n, "m": g.m, "k": cover.K})
    return 0


def _cmd_kernelize(given: dict) -> int:
    row, r = _route(given, "kernelize", "alg", "wrap")
    started = time.perf_counter()
    out = row.call(r)
    wall_ms = 1000 * (time.perf_counter() - started)

    kernel_graph, old_ids = out.kernel_graph()
    kept_cover = [i for i, v in enumerate(old_ids) if v in r.cover.member_set()]
    comments = [f"kernel-of {_instance_hash(r.instance)}", *row.header]
    budget = row.budget(r) if row.budget else None
    if budget is None:
        comments.append("header ell is the instance's, not a budget this kernel preserves")
        budget = r.inst.ell
    kernel_cover = VertexCover.validated(kernel_graph, kept_cover)
    _write(r.output, format_instance(kernel_graph, kernel_cover, budget, comments))
    _emit({
        "kept": len(out.kept_vertices),
        "passes": out.passes,
        "peak_words": out.peak_words,
        "wall_ms": f"{wall_ms:.1f}",
        "alg": r.alg,
        "instance": _instance_hash(r.instance),
        **row.report(r),
    })
    return 0


def _cmd_solve(given: dict) -> int:
    row, r = _route(given, "solve", "problem", "oracle")
    started = time.perf_counter()
    outcome = row.call(r)
    wall_ms = 1000 * (time.perf_counter() - started)
    _emit({
        "verdict": outcome.verdict,
        "solution": ",".join(map(str, outcome.solution)) or "-",
        "passes": outcome.passes,
        "peak_words": outcome.peak_words,
        "wall_ms": f"{wall_ms:.1f}",
        "alg": r.problem,
        "instance": _instance_hash(r.instance),
        "ell": r.ell,
        "k": r.cover.K,
        "n": r.inst.graph.n,
        **row.report(r),
    })
    return 0 if outcome.feasible else 1


def _cmd_verify(given: dict) -> int:
    row, r = _route(given, "solve", "problem", "oracle")
    # the brute force refuses large instances: fail before the solver runs
    if r.problem == "oct":
        size, _ = brute_min_oct(r.inst.graph)
    else:
        family = ExplicitFamily.from_graphs([path_graph(3)]) if r.problem == "cvd" else r.family
        size, _ = brute_min_deletion(r.inst.graph, family)
    expected = size <= r.ell
    outcome = row.call(r)
    agree = outcome.feasible == expected
    _emit({
        "agreement": str(agree).lower(),
        "verdict": outcome.verdict,
        "brute": "YES" if expected else "NO",
        "passes": outcome.passes,
        "peak_words": outcome.peak_words,
        "alg": r.problem,
        "ell": r.ell,
    })
    return 0 if agree else 1


def _keys(command: str, at: int) -> list[str]:
    return sorted({key[at] for key in ROUTES if key[0] == command} - {None})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcstream",
        description="Streaming deletion kernels and solvers parameterized by vertex cover",
    )
    parser.add_argument("--version", action="version", version=f"vcstream {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help):
        # a flag the user does not give stays out of the namespace: its
        # default is its route's
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func)
        return p

    p_gen = add_command("gen", _cmd_gen, "generate an instance file")
    p_gen.add_argument("kind", choices=_keys("gen", 1))
    p_gen.add_argument("--n", type=_non_negative_int)
    p_gen.add_argument("--k", type=_non_negative_int)
    p_gen.add_argument("--p", type=_probability)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--ell", type=_non_negative_int)
    p_gen.add_argument("--family", help="pattern file (doublefan: first member is split)")
    p_gen.add_argument("--split", type=_non_negative_int, help="degree-2 vertex to expand")
    p_gen.add_argument("--centers", type=_positive_int)
    p_gen.add_argument("--x", help="fan-A bit string")
    p_gen.add_argument("--y", help="fan-B bit string")
    p_gen.add_argument("--attach-all", action="store_true", dest="attach_all")
    p_gen.add_argument("-o", "--output")

    p_kern = add_command("kernelize", _cmd_kernelize, "stream a kernel out of an instance")
    p_kern.add_argument("instance")
    p_kern.add_argument("--alg", choices=_keys("kernelize", 1), default="reduce")
    p_kern.add_argument("--wrap", choices=_keys("kernelize", 2))
    p_kern.add_argument("--r", type=_non_negative_int)
    p_kern.add_argument("--c", type=_non_negative_int)
    p_kern.add_argument("--q", type=_positive_int)
    p_kern.add_argument("--k", type=_non_negative_int)
    p_kern.add_argument("--p", type=_positive_int)
    p_kern.add_argument("--ell", type=_non_negative_int)
    p_kern.add_argument("--cpi", type=_non_negative_int)
    p_kern.add_argument("--pfun")
    p_kern.add_argument("-o", "--output")

    for name, func, help in (("solve", _cmd_solve, "run a streaming solver"),
                             ("verify", _cmd_verify, "run a solver and the brute oracle")):
        p = add_command(name, func, help)
        p.add_argument("instance")
        p.add_argument("--problem", required=True, choices=_keys("solve", 1))
        p.add_argument("--ell", type=_non_negative_int)
        p.add_argument("--pattern", "--family", dest="family",
                       help="family file (hfree and pifree-oracle)")
        p.add_argument("--cpi", type=_non_negative_int)
        p.add_argument("--pfun")
        p.add_argument("--nu", type=_positive_int)
        p.add_argument("--oracle", choices=_keys("solve", 2))
        p.add_argument("--cc", action="store_true")
        p.add_argument("--low-mem", action="store_true", dest="low_mem")
        p.add_argument("--cache-cover", action="store_true", dest="cache_cover")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        given = vars(parser.parse_args(argv))
        del given["command"]
        return given.pop("func")(given)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (VCStreamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # exit 1 means NO, so nothing else may reach it
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
