"""Command-line front end: build networks, analyze, predict, bound, certify.

Exit codes form a stable contract: 0 on success/agreement, 1 on usage or
input errors, 2 when a requested reconciliation disagrees, including a
perturbation test that certifies no delta.  All numeric
inputs accept rational strings ("1/1000000") so the pipeline stays exact
end to end.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arrangement import ComplexSizeError
from .constructions import (
    CuttingSpec,
    FoldingSpec,
    betti_upper_bound,
    build_topo_network,
    predict_betti,
    serra_region_bound,
)
from .exactgeom import BoxDomain, parse_rational
from .homology import analyze_network
from .relunet import load_network, save_network
from .report import SCHEMA_VERSION
from .stability import check_stability, perturbation_test
from .verify import grid_beta0, grid_sign_sample, reconcile, write_csv, write_pgm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2


class CliError(Exception):
    pass


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise CliError(f"expected a comma-separated integer list, got {text!r}")


def _parse_box(text: str | None, d: int) -> BoxDomain:
    """The --box argument for dimension d; the unit cube when it is omitted."""
    if text is None:
        return BoxDomain.unit_cube(d)
    vals = [parse_rational(tok) for tok in text.split(",")]
    if len(vals) == 2:
        vals = vals * d
    if len(vals) != 2 * d:
        counts = "2" if d == 1 else f"2 or {2 * d}"
        raise CliError(f"--box needs {counts} rationals for dimension {d}")
    lower = tuple(vals[0::2])
    upper = tuple(vals[1::2])
    return BoxDomain(lower, upper)


def _print_json(obj, f=None):
    """Write obj as the CLI's JSON to f, or to the current sys.stdout."""
    f = sys.stdout if f is None else f
    json.dump(obj, f, indent=2, sort_keys=True)
    f.write("\n")


def cmd_build(args) -> int:
    m_vec = _int_list(args.m)
    w_vec = _int_list(args.w)
    fold = FoldingSpec(args.d, m_vec)
    cut = CuttingSpec(args.d, w_vec)
    net = build_topo_network(fold, cut, with_offset=args.offset)
    save_network(net, args.output)
    _print_json(
        {
            "architecture": list(net.architecture),
            "M": fold.M,
            "w": list(w_vec),
            "offset": args.offset,
            "path": args.output,
        }
    )
    return EXIT_OK


def cmd_analyze(args) -> int:
    net = load_network(args.network)
    box = _parse_box(args.box, net.input_dim)
    predicted = None
    if args.predict is not None:
        vals = _int_list(args.predict)
        if len(vals) != net.input_dim:
            raise CliError(
                f"--predict needs M and {net.input_dim - 1} widths, got {args.predict!r}"
            )
        predicted = predict_betti(vals[0], vals[1:], net.input_dim)
    oracle_beta0 = None
    if args.oracle is not None:
        sg = grid_sign_sample(net, box, args.oracle)
        oracle_beta0 = grid_beta0(sg)
    report = analyze_network(net, box, predicted=predicted, oracle_beta0=oracle_beta0)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as f:
            _print_json(report.to_json(), f)
    rec = reconcile(report)
    out = report.to_json()
    out["reconciliation"] = rec.to_json()
    _print_json(out)
    return EXIT_OK if rec.all_agree else EXIT_DISAGREE


def cmd_predict(args) -> int:
    w_vec = _int_list(args.w)
    bv = predict_betti(args.M, w_vec, args.d)
    _print_json({"d": args.d, "M": args.M, "w": list(w_vec), "betti": list(bv.values)})
    return EXIT_OK


def cmd_bounds(args) -> int:
    arch = _int_list(args.arch)
    if len(arch) < 2 or any(n < 1 for n in arch):
        raise CliError(f"invalid architecture {args.arch!r}")
    d = arch[0]
    r = serra_region_bound(arch)
    per_k = [betti_upper_bound(arch, k) for k in range(d)]
    _print_json({"architecture": list(arch), "serra": r, "binomial_bounds": per_k})
    return EXIT_OK


def cmd_stability(args) -> int:
    net = load_network(args.network)
    box = _parse_box(args.box, net.input_dim)
    if args.delta is None:
        rep = check_stability(net, box)
        ok = rep.topologically_stable
    else:
        rep = perturbation_test(net, box, parse_rational(args.delta), args.trials, args.seed)
        ok = rep.certified_delta is not None  # an unstable network certifies none
    _print_json(rep.to_json())
    return EXIT_OK if ok else EXIT_DISAGREE


def cmd_oracle(args) -> int:
    net = load_network(args.network)
    box = _parse_box(args.box, net.input_dim)
    # the dumps take only 2-d grids: refuse before sampling, not after
    for path, kind in ((args.pgm, "PGM"), (args.csv, "CSV")):
        if path is not None and box.dimension != 2:
            raise CliError(f"{kind} dump requires a 2-d grid")
    sg = grid_sign_sample(net, box, args.resolution)
    beta0 = grid_beta0(sg)
    if args.pgm is not None:
        write_pgm(sg, args.pgm)
    if args.csv is not None:
        write_csv(sg, args.csv)
    _print_json({"resolution": args.resolution, "beta0": beta0})
    return EXIT_OK


def cmd_report(args) -> int:
    with open(args.report, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise CliError("a report file holds a JSON object")
    schema = data.get("schema")
    # True and 1.0 equal 1 in Python, so the type is checked as well
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise CliError(f"unsupported report schema {schema!r}")
    _print_json(data)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="topobetti",
        description="Exact Betti-number analysis of small ReLU classifiers.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a folding+cutting network")
    b.add_argument("--d", type=int, required=True, help="input dimension")
    b.add_argument("--m", required=True, help="comma list of folds per layer (even)")
    b.add_argument("--w", required=True, help="comma list of cut widths, one per stage")
    b.add_argument("--offset", action="store_true", help="apply the closure offset")
    b.add_argument("-o", "--output", required=True, help="output network JSON path")
    b.set_defaults(func=cmd_build)

    a = sub.add_parser("analyze", help="exact Betti analysis of a network file")
    a.add_argument("network", help="network JSON path")
    a.add_argument("--box", help="box as lo,hi (uniform) or per-dim lo1,hi1,...")
    a.add_argument("--predict", help="closed-form comparison: M,w1,...,w_{d-1}")
    a.add_argument("--oracle", type=int, help="grid oracle resolution N")
    a.add_argument("--out", help="write the AnalysisReport JSON here")
    a.set_defaults(func=cmd_analyze)

    pr = sub.add_parser("predict", help="closed-form Betti vector")
    pr.add_argument("--d", type=int, required=True)
    pr.add_argument("--M", type=int, required=True)
    pr.add_argument("--w", required=True, help="comma list of widths")
    pr.set_defaults(func=cmd_predict)

    bo = sub.add_parser("bounds", help="region and Betti upper bounds")
    bo.add_argument("--arch", required=True, help="architecture as comma list")
    bo.set_defaults(func=cmd_bounds)

    st = sub.add_parser("stability", help="stability check / perturbation test")
    st.add_argument("network", help="network JSON path")
    st.add_argument("--box", help="box as lo,hi or per-dim list")
    st.add_argument("--delta", help="perturbation radius (rational); omit for static check")
    st.add_argument("--trials", type=int, default=16)
    st.add_argument("--seed", type=int, default=0)
    st.set_defaults(func=cmd_stability)

    orc = sub.add_parser("oracle", help="independent grid sign oracle")
    orc.add_argument("network", help="network JSON path")
    orc.add_argument("--box", help="box as lo,hi or per-dim list")
    orc.add_argument("--resolution", type=int, required=True)
    orc.add_argument("--pgm", help="dump 2-d sign grid as ASCII PGM")
    orc.add_argument("--csv", help="dump 2-d sign grid as CSV")
    orc.set_defaults(func=cmd_oracle)

    rp = sub.add_parser("report", help="pretty-print a saved report JSON")
    rp.add_argument("report", help="report JSON path")
    rp.set_defaults(func=cmd_report)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (CliError, ComplexSizeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
