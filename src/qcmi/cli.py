"""Command line interface.

Exit codes: 0 on success, 1 on usage or validation errors or when
standard output is a closed pipe, 2 when a proven inequality fails
beyond tolerance (a diagnostic artifact is written in that case).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import InequalityViolationError, QcmiError, SingularMatrixError
from .harness import (
    CONJECTURES,
    CORPORA,
    ScanConfig,
    run_conjecture,
    scan,
)
from .inequalities import proven_checks
from .recovery import classify, modular_residual
from .states import markov_state, regularize
from .stateio import read_markov_spec, read_state, to_json, to_text, write_state
from .tolerances import DEFAULT_TOL, REGULARIZE_EPS, _require_tol


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route that to exit code 1
    # instead, since 2 is reserved for inequality violations.
    def error(self, message):
        raise _UsageError(message)


def _dims(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected dA,dB,dC, got {text!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must be integers, got {text!r}")
    if any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"dims must be positive, got {text!r}")
    return dims


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qcmi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="bounds, classification, and residuals of one state")
    p_info.add_argument("state", help="state JSON file")
    p_info.add_argument("--tol", type=float, default=DEFAULT_TOL, help="classification tolerance")
    p_info.add_argument("--json", action="store_true", help="print a JSON object")
    p_info.add_argument(
        "--regularize",
        action="store_true",
        help=f"mix with {REGULARIZE_EPS:g} of the maximally mixed state before analysis",
    )

    p_scan = sub.add_parser("scan", help="evaluate bounds on a random corpus")
    p_scan.add_argument("--dims", type=_dims, required=True, help="subsystem dims dA,dB,dC")
    p_scan.add_argument("--samples", type=int, required=True)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--corpus", choices=CORPORA, default="hs-random")
    p_scan.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_scan.add_argument("--out", required=True, help="report file to write")
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")

    p_conj = sub.add_parser("conjecture", help="stress-test a conjectured bound")
    p_conj.add_argument("--which", choices=CONJECTURES, required=True)
    p_conj.add_argument("--dims", type=_dims, required=True, help="subsystem dims dA,dB,dC")
    p_conj.add_argument("--samples", type=int, required=True)
    p_conj.add_argument(
        "--unitary-samples",
        type=int,
        default=10,
        help="unitary triples per state for the rotated bound",
    )
    p_conj.add_argument("--seed", type=int, default=0)
    p_conj.add_argument("--corpus", choices=CORPORA, default="hs-random")
    p_conj.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_conj.add_argument("--out", required=True, help="report file to write")

    p_markov = sub.add_parser("markov", help="assemble a Markov state from a block spec")
    p_markov.add_argument("--spec", required=True, help="Markov spec JSON file")
    p_markov.add_argument("--out", required=True, help="state JSON file to write")

    p_cls = sub.add_parser("classify", help="commutation/reconstruction class of one state")
    p_cls.add_argument("state", help="state JSON file")
    p_cls.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_cls.add_argument("--json", action="store_true", help="print a JSON object")

    return parser


def _print(record: dict, as_json: bool) -> None:
    # One JSON object, or one "key: value" line per entry.
    if as_json:
        print(to_json(record))
    else:
        for key, value in record.items():
            print(f"{key}: {to_text(value)}")


def _classification(cls) -> dict:
    return {
        "label": cls.label,
        "commutator_trace_norm": cls.commutator_norm,
        "reconstruction_gap": cls.reconstruction_gap,
    }


def _cmd_info(args) -> int:
    _require_tol(args.tol)
    state = read_state(args.state)
    if args.regularize:
        state = regularize(state)
    a = state.analysis
    # cmi leads the entropies; the bound chain follows, as in a scan row.
    record = {"dims": list(state.dims), "cmi": a.cmi, **vars(a.entropies)}
    record.update(
        sigma_star_trace=a.sigma_star_trace,
        log_overlap_bound=a.log_overlap_bound,
        thm1_bound=a.thm1,
        corollary_bound=a.corollary_bound,
        slack_thm1=a.cmi - a.thm1,
        slack_corollary=a.cmi - a.corollary_bound,
        support_restricted=a.support_restricted,
    )
    cls = classify(state, tol=args.tol)
    try:
        modular = modular_residual(state)
    except SingularMatrixError:
        modular = None
    record.update(_classification(cls), recovery_gap_M=a.gap_m, recovery_gap_Mprime=a.gap_mprime)
    record.update(ruskai_residual=a.ruskai, modular_residual=modular)
    _print(record, args.json)
    # The proven rows of qcmi.inequalities that need no corpus, on the
    # analysis whose bound chain is printed above.
    bad = [(name, s) for name, s in proven_checks(a, None) if not s >= -args.tol]
    for name, s in bad:
        print(
            f"proven inequality {name!r} violated: slack {s:.6e} below -{args.tol:.1e}",
            file=sys.stderr,
        )
    return 2 if bad else 0


def _config(args) -> ScanConfig:
    return ScanConfig(
        dims=args.dims,
        samples=args.samples,
        seed=args.seed,
        corpus=args.corpus,
        tol=args.tol,
        out=args.out,
    )


def _cmd_scan(args) -> int:
    rows = scan(_config(args), args.format)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_conjecture(args) -> int:
    results = run_conjecture(_config(args), args.which, unitary_samples=args.unitary_samples)
    for r in results:
        print(
            f"{r.conjecture_id}: samples={r.samples} min_slack={to_text(r.min_slack)} "
            f"argmin_sample={r.argmin_sample} violations={r.violations}"
        )
    print(f"wrote report to {args.out}")
    return 0


def _cmd_markov(args) -> int:
    spec = read_markov_spec(args.spec)
    state = markov_state(spec)
    write_state(state, args.out)
    print(f"wrote state of dims {state.dims} to {args.out} (cmi={to_text(state.analysis.cmi)})")
    return 0


def _cmd_classify(args) -> int:
    _require_tol(args.tol)
    cls = classify(read_state(args.state), tol=args.tol)
    _print({**_classification(cls), "tol": cls.tol}, args.json)
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "scan": _cmd_scan,
    "conjecture": _cmd_conjecture,
    "markov": _cmd_markov,
    "classify": _cmd_classify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except InequalityViolationError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 2
    except QcmiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()  # here, so that a closed pipe raises where it is caught
    except BrokenPipeError:
        # Python flushes stdout again at exit; what is left goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
