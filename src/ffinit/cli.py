"""Command line interface.

Subcommands:
    experiment     run a regime-comparison experiment from a JSON config
    train          train a stacked auto-encoder and save a checkpoint
    infer          relax one dataset item with a saved model

Exit codes: 0 success, 2 configuration/input error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .data import save_params, load_params
from .energy import energy_model_or_none
from .exceptions import ConfigurationError, FfinitError, InvalidInputError
from .harness import (
    build_dataset,
    experiment_spec_from_config,
    override_seed,
    run_experiment,
    write_trace,
    write_training_curve,
)
from .inference import infer_from_feedforward
from .learning import train_stacked_ae
from .network import mutual_prediction_residual


def _load_config(args):
    """The experiment spec of ``--config``, with ``--seed`` applied when given.

    A file that does not decode as UTF-8 JSON raises
    :class:`ConfigurationError`, and so does an integer literal beyond
    Python's digit limit or nesting deeper than the decoder's recursion
    limit.
    """
    text = Path(args.config).read_bytes()
    try:
        doc = json.loads(text.decode("utf-8"))
    except (ValueError, RecursionError) as exc:   # JSON and Unicode errors are ValueErrors
        raise ConfigurationError(f"cannot read config {args.config}: {exc}") from None
    spec = experiment_spec_from_config(doc)
    return spec if args.seed is None else override_seed(spec, args.seed)


def _cmd_experiment(args) -> int:
    spec = _load_config(args)
    if args.out is not None:
        spec = replace(spec, output_dir=args.out)
    report = run_experiment(spec)
    for rr in report.regimes:
        if len(rr.initial_steps):
            print(f"{rr.regime}: initial step mean {rr.initial_steps.mean():.6g}, "
                  f"iterations-to-tol mean {rr.iters_to_tol.mean():.3g}, "
                  f"converged {int(rr.converged.sum())}/{len(rr.converged)}")
    print(f"wrote CSV outputs to {spec.output_dir}")
    return 0


def _cmd_train(args) -> int:
    spec = _load_config(args)
    data = build_dataset(spec.dataset, spec.sizes, spec.seed)
    curve = []
    params = train_stacked_ae(
        data, spec.sizes, spec.train,
        progress=lambda pair, epoch, err: curve.append((pair, epoch, err)))
    save_params(params, args.out)
    print(f"saved model to {args.out}")
    if args.curve:
        write_training_curve(curve, args.curve)
        print(f"saved training curve to {args.curve}")
    for pair in range(1, spec.sizes.n_hidden_layers + 1):
        errs = [err for p, _, err in curve if p == pair]
        if errs:
            print(f"pair {pair}: final reconstruction error {errs[-1]:.6g}")
    return 0


def _cmd_infer(args) -> int:
    spec = _load_config(args)
    params = load_params(args.model)
    if spec.sizes != params.spec:
        raise ConfigurationError(f"config sizes {list(spec.sizes.sizes)} differ from the "
                                 f"checkpoint's {list(params.spec.sizes)}")
    data = build_dataset(spec.dataset, params.spec, spec.seed)
    if not 0 <= args.index < len(data):
        raise InvalidInputError(
            f"--index {args.index} is outside the dataset's {len(data)} items")
    x = data.items[args.index]
    energy_model = energy_model_or_none(params)
    state, trace = infer_from_feedforward(params, x, spec.relaxation,
                                          energy_model=energy_model)
    residual = float(mutual_prediction_residual(params, state).max())
    if args.out:
        write_trace(trace, args.out)
        print(f"wrote trace to {args.out}")
    print(f"item {args.index}: converged={trace.converged} after {trace.iters_run} "
          f"iterations, initial step {trace.step_magnitudes[0]:.6g}, "
          f"final residual {residual:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffinit",
        description="Relaxation experiments on layered recurrent networks")
    parser.add_argument("--verbose", action="store_true",
                        help="log training diagnostics to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="JSON experiment config")
    config.add_argument("--seed", type=int, help="override every seed in the config")

    p = sub.add_parser("experiment", parents=[config],
                       help="run a regime-comparison experiment")
    p.add_argument("--out", help="override the config's output directory")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("train", parents=[config], help="train a stacked auto-encoder")
    p.add_argument("--out", required=True,
                   help="checkpoint file to write (format 2, an .npz archive; "
                        "written at the path as given)")
    p.add_argument("--curve", help="optional CSV path for the training curve")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", parents=[config],
                       help="relax one dataset item with a saved model")
    p.add_argument("--model", required=True,
                   help="checkpoint file to load (format 2, the .npz archive that "
                        "train writes)")
    p.add_argument("--index", type=int, default=0, help="dataset item to clamp")
    p.add_argument("--out", help="optional CSV path for the per-iteration trace")
    p.set_defaults(func=_cmd_infer)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except FfinitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
