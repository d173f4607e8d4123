"""Command-line entry point: gen | kernelize | solve | verify.

Every run prints a machine-parseable report, one key=value per token.
Exit codes: 0 YES/success, 1 NO (or disagreement under verify), 2 usage
error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

from . import __version__
from .brute import brute_min_deletion, brute_min_oct
from .errors import VCStreamError
from .graph import VertexCover
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


def _instance_hash(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {text!r}")
        return value

    return parse


_non_negative_int = _int_at_least(0, "non-negative")
_positive_int = _int_at_least(1, "positive")

# the --wrap values each kernel algorithm accepts
KERNEL_WRAPS = {"reduce": ("pifree", "largest", "partition"), "lowrank": ("rankc",)}


def _fresh_meter() -> MemoryMeter:
    budget = os.environ.get(BUDGET_ENV)
    if not budget:
        return MemoryMeter()
    try:
        return MemoryMeter(_non_negative_int(budget))
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{BUDGET_ENV} {exc}") from None


def _emit(report: dict) -> None:
    print(" ".join(f"{k}={v}" for k, v in report.items()))


def _fmt_ids(ids) -> str:
    return ",".join(str(v) for v in ids) if ids else "-"


def _require_al(args) -> None:
    model = getattr(args, "model", "al")
    if model != "al":
        raise UsageError("only the AL model is supported here; solvers reject EA/VA")


class UsageError(Exception):
    pass


def _load(args):
    inst = load_instance(args.instance)
    handle = make_stream(inst.graph, AL)
    return inst, handle


def _cmd_gen(args) -> int:
    if args.kind == "planted":
        spec = PlantedSpec(args.n, args.k, args.p, args.seed, args.ell)
        g, cover = gen_planted(spec)
        comments = [f"seed={args.seed}", f"gen=planted p={args.p}"]
        text = format_instance(g, cover, args.ell, comments)
    else:
        family = load_family(args.family)
        pattern = family.members[0]
        spec = DoubleFanSpec(
            pattern, args.split, args.centers, args.x, args.y,
            attach_all_neighbors=args.attach_all,
        )
        g, cover, expected = gen_double_fan(spec)
        comments = [
            f"gen=doublefan split={args.split} centers={args.centers}",
            f"x={args.x} y={args.y} expected={'YES' if expected else 'NO'}",
        ]
        text = format_instance(g, cover, 0, comments)
    if args.output:
        Path(args.output).write_text(text)
        _emit({"wrote": args.output, "n": g.n, "m": g.m, "k": cover.K})
    else:
        sys.stdout.write(text)
    return 0


def _char_from_args(args) -> AdjacencyCharacterization:
    if args.cpi is None or args.pfun is None:
        raise UsageError("this wrapper needs --cpi and --pfun")
    return AdjacencyCharacterization(
        args.cpi, parse_pfun(args.pfun), connected_only=True, p_label=args.pfun
    )


def _cmd_kernelize(args) -> int:
    if args.wrap is not None and args.wrap not in KERNEL_WRAPS[args.alg]:
        raise UsageError(f"--wrap {args.wrap} does not apply to --alg {args.alg}")
    inst, handle = _load(args)
    _require_al(args)
    meter = _fresh_meter()
    started = time.perf_counter()
    if args.alg == "reduce":
        if args.wrap == "pifree":
            out = kernel_pifree(handle, inst.cover, args.ell, _char_from_args(args), meter)
        elif args.wrap == "largest":
            out = kernel_largest_induced(handle, inst.cover, _char_from_args(args), meter)
        elif args.wrap == "partition":
            out = kernel_partition_q(handle, inst.cover, args.q, _char_from_args(args), meter)
        else:
            if args.r is None or args.c is None:
                raise UsageError("--alg reduce needs --r and --c (or a --wrap)")
            out = reduce_str(handle, inst.cover, args.r, args.c, meter)
    else:
        if args.wrap == "rankc":
            if args.k is None or args.p is None or args.c is None:
                raise UsageError("--wrap rankc needs --k, --p and --c")
            out = kernel_by_rank(handle, inst.cover, args.k, args.p, args.c, meter)
        else:
            if args.ell is None or args.c is None:
                raise UsageError("--alg lowrank needs --ell and --c")
            out = low_rank_reduce_str(handle, inst.cover, args.ell, args.c, meter)
    wall_ms = 1000 * (time.perf_counter() - started)

    kernel_graph, old_ids = out.kernel_graph()
    kept_cover = [i for i, v in enumerate(old_ids) if v in inst.cover.member_set()]
    comments = [f"kernel-of {_instance_hash(args.instance)}"]
    if args.cpi is not None:
        comments.append("characterization supplied by user, not verified")
    text = format_instance(
        kernel_graph, VertexCover.validated(kernel_graph, kept_cover), inst.ell, comments
    )
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    report = {
        "kept": len(out.kept_vertices),
        "passes": out.passes,
        "peak_words": out.peak_words,
        "wall_ms": f"{wall_ms:.1f}",
        "alg": args.alg,
        "instance": _instance_hash(args.instance),
    }
    if args.cpi is not None:
        report["cpi"] = args.cpi
        report["pfun"] = args.pfun
        report["char"] = "user-supplied"
    _emit(report)
    return 0


def _solver_family(args):
    path = getattr(args, "pattern", None) or getattr(args, "family", None)
    if path is None:
        raise UsageError("this problem needs --pattern or --family")
    return load_family(path)


def _run_solver(args, inst, handle, meter, family=None):
    problem = args.problem
    if problem == "cvd":
        return solve_cvd(handle, inst.cover, args.ell, meter, cache_cover=args.cache_cover)
    if problem == "oct":
        if args.cc or args.low_mem:
            return solve_oct_cc(handle, inst.cover, args.ell, meter, low_mem=args.low_mem)
        return solve_oct(handle, inst.cover, args.ell, meter)
    if problem == "hfree":
        family = family if family is not None else _solver_family(args)
        char = None
        if args.cpi is not None:
            # only the (c_pi + 1) * K member bound is consumed here; p is a
            # placeholder unless --pfun is given
            char = _char_from_args(args) if args.pfun else AdjacencyCharacterization(
                args.cpi, lambda K: max(1, K), connected_only=True
            )
        return solve_pifree_explicit(
            handle, inst.cover, args.ell, family, char, meter,
            strict_induced=args.strict_induced,
        )
    if problem == "pifree-oracle":
        family = family if family is not None else _solver_family(args)
        nu = args.nu if args.nu is not None else family.nu
        if args.oracle == "a1":
            return solve_with_a1(
                handle, inst.cover, args.ell, nu, family_oracle(family, "a1"), meter
            )
        if args.oracle == "a2":
            return solve_with_a2(
                handle, inst.cover, args.ell, nu, family_oracle(family, "a2"), "plain", meter
            )
        if args.oracle == "a1sub":
            return solve_with_a2(
                handle, inst.cover, args.ell, nu, family_oracle(family, "a1"),
                "a1_subsets", meter,
            )
        if args.oracle == "ecenum":
            return solve_equivclass_enum(
                handle, inst.cover, family_oracle(family, "a2"), args.ell, meter
            )
        raise UsageError(f"unknown oracle {args.oracle!r}")
    raise UsageError(f"unknown problem {problem!r}")


def _cmd_solve(args) -> int:
    inst, handle = _load(args)
    _require_al(args)
    meter = _fresh_meter()
    ell = args.ell if args.ell is not None else inst.ell
    args.ell = ell
    started = time.perf_counter()
    outcome = _run_solver(args, inst, handle, meter)
    wall_ms = 1000 * (time.perf_counter() - started)
    report = {
        "verdict": outcome.verdict,
        "solution": _fmt_ids(outcome.solution),
        "passes": outcome.passes,
        "peak_words": outcome.peak_words,
        "wall_ms": f"{wall_ms:.1f}",
        "alg": args.problem,
        "instance": _instance_hash(args.instance),
        "ell": ell,
        "k": inst.cover.K,
        "n": inst.graph.n,
    }
    if getattr(args, "cpi", None) is not None:
        report["cpi"] = args.cpi
        report["char"] = "user-supplied"
    if getattr(args, "cache_cover", False):
        report["profile"] = "cached-cover"
    _emit(report)
    return 0 if outcome.feasible else 1


def _brute_reference(args, inst, family):
    if args.problem == "oct":
        size, _ = brute_min_oct(inst.graph)
        return size <= args.ell
    if args.problem == "cvd":
        from .graph import path_graph

        family = ExplicitFamily.from_graphs([path_graph(3)])
    size, _ = brute_min_deletion(inst.graph, family)
    return size <= args.ell


def _cmd_verify(args) -> int:
    inst, handle = _load(args)
    _require_al(args)
    meter = _fresh_meter()
    ell = args.ell if args.ell is not None else inst.ell
    args.ell = ell
    family = None
    if args.problem in ("hfree", "pifree-oracle"):
        family = _solver_family(args)
    outcome = _run_solver(args, inst, handle, meter, family)
    expected = _brute_reference(args, inst, family)
    agree = outcome.feasible == expected
    _emit(
        {
            "agreement": str(agree).lower(),
            "verdict": outcome.verdict,
            "brute": "YES" if expected else "NO",
            "passes": outcome.passes,
            "peak_words": outcome.peak_words,
            "alg": args.problem,
            "ell": ell,
        }
    )
    return 0 if agree else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcstream",
        description="Streaming deletion kernels and solvers parameterized by vertex cover",
    )
    parser.add_argument("--version", action="version", version=f"vcstream {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("kind", choices=["planted", "doublefan"])
    p_gen.add_argument("--n", type=int, default=20)
    p_gen.add_argument("--k", type=int, default=4)
    p_gen.add_argument("--p", type=float, default=0.3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--ell", type=int, default=1)
    p_gen.add_argument("--family", help="pattern file (doublefan: first member is split)")
    p_gen.add_argument("--split", type=int, default=1, help="degree-2 vertex to expand")
    p_gen.add_argument("--centers", type=int, default=3)
    p_gen.add_argument("--x", default="101", help="fan-A bit string")
    p_gen.add_argument("--y", default="010", help="fan-B bit string")
    p_gen.add_argument("--attach-all", action="store_true", dest="attach_all")
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(func=_cmd_gen)

    p_kern = sub.add_parser("kernelize", help="stream a kernel out of an instance")
    p_kern.add_argument("instance")
    p_kern.add_argument("--alg", choices=["reduce", "lowrank"], default="reduce")
    p_kern.add_argument("--wrap", choices=[w for ws in KERNEL_WRAPS.values() for w in ws])
    p_kern.add_argument("--r", type=_non_negative_int)
    p_kern.add_argument("--c", type=_non_negative_int)
    p_kern.add_argument("--q", type=_positive_int, default=1)
    p_kern.add_argument("--k", type=_non_negative_int)
    p_kern.add_argument("--p", type=_non_negative_int)
    p_kern.add_argument("--ell", type=_non_negative_int, default=0)
    p_kern.add_argument("--cpi", type=int)
    p_kern.add_argument("--pfun")
    p_kern.add_argument("--model", choices=["al", "ea", "va"], default="al")
    p_kern.add_argument("-o", "--output")
    p_kern.set_defaults(func=_cmd_kernelize)

    def add_solver_args(p):
        p.add_argument("instance")
        p.add_argument("--problem", required=True,
                       choices=["cvd", "oct", "hfree", "pifree-oracle"])
        p.add_argument("--ell", type=_non_negative_int)
        p.add_argument("--pattern", help="family file for hfree")
        p.add_argument("--family", help="family file (oracle-backed problems)")
        p.add_argument("--cpi", type=int)
        p.add_argument("--pfun")
        p.add_argument("--nu", type=int)
        p.add_argument("--oracle", choices=["a1", "a2", "a1sub", "ecenum"], default="a2")
        p.add_argument("--cc", action="store_true")
        p.add_argument("--low-mem", action="store_true", dest="low_mem")
        p.add_argument("--cache-cover", action="store_true", dest="cache_cover")
        p.add_argument("--no-strict-induced", action="store_false", dest="strict_induced")
        p.add_argument("--model", choices=["al", "ea", "va"], default="al")

    p_solve = sub.add_parser("solve", help="run a streaming solver")
    add_solver_args(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="run a solver and the brute oracle")
    add_solver_args(p_verify)
    p_verify.add_argument("--against", choices=["brute"], default="brute")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
