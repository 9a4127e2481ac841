"""Command-line entry point.

Subcommands: learn, synth, verify, simulate, sample, hankel, equiv, and
pipeline (dataset-to-verdict in one call). Results go to stdout, all
diagnostics to stderr. Exit codes: 0 success or positive verdict, 1
negative analysis verdict (NOT_RESILIENT, non-learnable data), 2 usage
or I/O errors (including negative counts and non-trim simulate machines),
3 resource-guard aborts, 4 internal errors (traceback on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from .errors import AnalysisError, FormatError, FstlearnError
from .formats import grid, letter_to_text, load_dataset, load_fst, save_dataset, save_fst, word_to_text
from .fst import Fst, counterexample

# A command imports the learner, loop and supervisor modules it runs only when it
# runs, and reads their names there at each call (the docstring is --help's text).


def __getattr__(name: str):
    # learn_pipeline, synthesize and the package's other public names, loaded on first use (PEP 562).
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(package, name)


def _load_mk(spec_text: str) -> Fst:
    # A value starting with '(' is a desired-language pattern like
    # ((a1:s2)(a2:s2))*; anything else names a machine file.
    if spec_text.lstrip().startswith("("):
        from .supervisor import pattern_to_fst
        return pattern_to_fst(spec_text)
    return load_fst(spec_text)


def _dump_learn(res: LearnResult, outdir: str) -> None:
    import numpy  # only the dump needs it

    os.makedirs(outdir, exist_ok=True)

    def save(name: str, mat) -> None:
        numpy.savetxt(os.path.join(outdir, name), numpy.atleast_2d(mat), fmt="%.10g")

    with open(os.path.join(outdir, "mask.txt"), "w", encoding="utf-8") as fh:
        for w in res.mask.prefixes:
            fh.write(f"psi {word_to_text(w)}\n")
        for w in res.mask.suffixes:
            fh.write(f"gamma {word_to_text(w)}\n")
    save("h_theta.txt", res.hankel.h_theta)
    save("p.txt", res.raw.p)
    save("s.txt", res.raw.s)
    save("b.txt", res.b)
    save("p_new.txt", res.natural.p)
    save("s_new.txt", res.natural.s)
    save("t0.txt", res.tup.t0)
    save("t_inf.txt", res.tup.t_inf)
    # Letter k of the alphabet is line k + 1 of letters.txt and names h_chi_<k> and t_<k>.
    with open(os.path.join(outdir, "letters.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{letter_to_text(chi)}\n" for chi in res.sample.alphabet)
    for k, chi in enumerate(res.sample.alphabet):
        save(f"h_chi_{k}.txt", res.hankel.h_chi[chi])
        save(f"t_{k}.txt", res.tup.trans[chi])


def pipeline(
    sensor_data_path: str,
    actuator_data_path: str,
    plant: Fst,
    m_k: Fst,
    dump_dir: str | None = None,
) -> SynthesisResult:
    """Learn both channel attackers, synthesize, and verify."""
    from .spectral import learn_pipeline
    from .supervisor import synthesize, verify_resilient
    results: dict[str, LearnResult] = {}
    for channel, path in (("sensor", sensor_data_path), ("actuator", actuator_data_path)):
        try:
            results[channel] = learn_pipeline(load_dataset(path))
        except AnalysisError as exc:
            raise type(exc)(
                exc.stage, f"learning the {channel} attacker model failed: {exc.message}"
            ) from exc
        if dump_dir is not None:
            _dump_learn(results[channel], os.path.join(dump_dir, channel))
    a_s = results["sensor"].fst
    a_a = results["actuator"].fst
    s = synthesize(m_k, a_s, a_a)
    if dump_dir is not None:
        save_fst(s, os.path.join(dump_dir, "supervisor.fst"))
    return verify_resilient(plant, s, a_s, a_a, m_k)


def _verdict(yes: str, witness) -> int:
    """Print the verdict `yes` (exit 0), or NOT_`yes` with its witness (exit 1)."""
    if witness is None:
        print(yes)
        return 0
    print(f"NOT_{yes} witness={word_to_text(witness)}")
    return 1


def _cmd_learn(args: argparse.Namespace) -> int:
    from .spectral import learn_pipeline
    res = learn_pipeline(load_dataset(args.data))
    if args.dump_intermediates is not None:
        _dump_learn(res, args.dump_intermediates)
    save_fst(res.fst, args.out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .supervisor import synthesize
    s = synthesize(_load_mk(args.mk), load_fst(args.sensor_attacker), load_fst(args.actuator_attacker))
    save_fst(s, args.out)
    return 0


def _loop_machines(args: argparse.Namespace) -> tuple[Fst, ...]:
    """The loop's four machines, loaded in verify_resilient's and LoopConfig's order."""
    return tuple(map(load_fst, (args.plant, args.supervisor, args.sensor_attacker, args.actuator_attacker)))


def _cmd_verify(args: argparse.Namespace) -> int:
    from .supervisor import verify_resilient
    result = verify_resilient(*_loop_machines(args), _load_mk(args.mk))
    return _verdict("RESILIENT", result.witness)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .loop import LoopConfig, format_trace, run
    machines = _loop_machines(args)
    try:
        cfg = LoopConfig(*machines, max_steps=args.steps, seed=args.seed)
    except ValueError as exc:  # a machine that is not trim
        raise FormatError(str(exc)) from exc
    text = format_trace(run(cfg))
    if args.trace_out is not None:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    from .loop import sample_attacker
    d = sample_attacker(
        load_fst(args.attacker),
        n_words=args.n,
        max_len=args.max_len,
        seed=args.seed,
        exhaustive=args.mode == "exhaustive",
    )
    save_dataset(d, args.out)
    return 0


def _cmd_hankel(args: argparse.Namespace) -> int:
    from .hankel import block_rows, default_mask_len, find_basis
    d = load_dataset(args.data)
    mask = find_basis(d, default_mask_len(d))
    psi, gamma, theta = mask.prefixes, mask.suffixes, block_rows(d, mask, ())
    sys.stdout.write(grid(theta, psi, gamma, "H_theta"))
    for chi in d.alphabet:
        sys.stdout.write("\n" + grid(block_rows(d, mask, (chi,)), psi, gamma, f"H_chi {letter_to_text(chi)}"))
    print(f"\nrank(H_theta) = {sum(map(any, theta))}")  # find_basis gives each nonzero row a pivot
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    return _verdict("EQUIVALENT", counterexample(load_fst(args.left), load_fst(args.right)))


def _cmd_pipeline(args: argparse.Namespace) -> int:
    result = pipeline(
        args.sensor_data,
        args.actuator_data,
        load_fst(args.plant),
        _load_mk(args.mk),
        dump_dir=args.dump_intermediates,
    )
    # The supervisor file is only written on success; a candidate that
    # failed verification is available via --dump-intermediates.
    if result.resilient and args.out is not None:
        save_fst(result.supervisor, args.out)
    return _verdict("RESILIENT", result.witness)


def _count(text: str) -> int:
    """argparse type of every count and length bound: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    # Flag groups, each declared once and attached only to the subcommands that use it.
    learning = argparse.ArgumentParser(add_help=False)
    learning.add_argument(
        "--dump-intermediates", metavar="DIR", default=None, help="write intermediate matrices here"
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="random seed")
    mk = argparse.ArgumentParser(add_help=False)
    mk.add_argument("--mk", required=True, help="desired-language FST file or pattern")
    plant = argparse.ArgumentParser(add_help=False)
    plant.add_argument("--plant", required=True)
    attackers = argparse.ArgumentParser(add_help=False)
    for flag in ("--sensor-attacker", "--actuator-attacker"):
        attackers.add_argument(flag, required=True)
    loop = argparse.ArgumentParser(add_help=False, parents=[plant])
    loop.add_argument("--supervisor", required=True)

    parser = argparse.ArgumentParser(prog="fstlearn", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("learn", parents=[learning], help="learn an FST from a sample dataset")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--out", required=True, help="output FST file")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("synth", parents=[mk, attackers], help="synthesize a candidate supervisor")
    p.add_argument("--out", required=True, help="output supervisor FST file")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("verify", parents=[loop, attackers, mk], help="check a supervisor for resilience")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", parents=[seeded, loop, attackers], help="run the clocked control loop")
    p.add_argument("--steps", type=_count, default=20)
    p.add_argument("--trace-out", default=None, help="trace file (default stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sample", parents=[seeded], help="record attack words from an attacker FST")
    p.add_argument("--attacker", required=True)
    p.add_argument("--mode", choices=("random", "exhaustive"), default="random")
    p.add_argument("--n", type=_count, default=50, help="number of random walks")
    p.add_argument("--max-len", type=_count, default=8)
    p.add_argument("--out", required=True, help="output dataset file")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("hankel", help="print the Hankel matrices of a dataset")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_hankel)

    p = sub.add_parser("equiv", help="compare the languages of two FSTs")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("pipeline", parents=[learning, plant, mk], help="learn both attackers, synthesize, verify")
    p.add_argument("--sensor-data", required=True)
    p.add_argument("--actuator-data", required=True)
    p.add_argument("--out", default=None, help="also write the supervisor FST here")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():  # each warning, every time, as one plain line
            warnings.simplefilter("always")
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except FstlearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # A bug, not a verdict: never let it read as exit 1.
        import traceback  # only here: it costs about 2 ms of every cold start
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
