"""Command-line front end.

Subcommands: synth, describe, fit-pca, train, reduce, eval, sweep.

Exit codes: 1 usage, 2 file-format or dimension errors, 3 numeric errors,
4 configuration errors. Output files are written to a temp file and renamed
into place, so failures leave no partial artifacts, and get the mode of a
new file under the umask. The manifest (-m) is written last, before
anything is printed; if that write fails, the command's other outputs are
removed and nothing is printed. All randomness flows from --seed, a
non-negative integer; subsystem seeds are derived from it by fixed offsets.

Optional per-command config files are flat `key=value` lines (`#` comments);
explicit flags win over config-file values, and a key the command does not
take is a configuration error.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
import time
from dataclasses import replace

try:
    import resource
except ImportError:  # no getrusage (Windows): manifests record no fault counts
    resource = None

from . import __version__, numerics
from ._binio import write_atomic
from .data import (
    TIER_NAMES,
    extract_descriptors,
    generate_synthetic,
    load_descriptors,
    load_patches,
    save_descriptors,
    save_patches,
)
from .errors import ConfigError, FormatError, NumericError, ShapeError, StateError
from .eval import eval_matching, eval_retrieval, eval_verification
from .nn import load_model, save_model
from .pca import fit_pca, load_pca, pca_transform, save_pca
from .train import SCHEMES, TrainConfig, reduce as reduce_set, train as train_model

EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_NUMERIC = 3
EXIT_CONFIG = 4


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a token for a negative number, and so for a value
        # rather than an option, only if it matches this; its own pattern
        # misses "-inf" and "-1e-3", so `--lr -inf` would read as a flag
        # with no value
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _minor_faults():
    """Minor page faults this process has taken so far, or None without
    `resource`."""
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class _Manifest:
    """Phase timings plus key=value facts, written and printed at the end of
    a command."""

    def __init__(self, command: str, seed):
        self.items = [("tool", f"desclite {__version__}"), ("command", command)]
        if seed is not None:
            self.items.append(("seed", seed))
        self._t0 = time.perf_counter()

    def add(self, key, value):
        self.items.append((key, value))

    @contextlib.contextmanager
    def phase(self, name: str):
        """Time the block and record it as `phase.<name>_s`, and the minor
        page faults the process took in it as `phase.<name>_faults` where
        the OS reports them."""
        t0 = time.perf_counter()
        f0 = _minor_faults()
        yield
        self.add(f"phase.{name}_s", f"{time.perf_counter() - t0:.3f}")
        if f0 is not None:
            self.add(f"phase.{name}_faults", _minor_faults() - f0)

    def emit(self, path=None, outputs=(), report: str = ""):
        """Write the manifest file, then print `report` and the manifest. If
        the file cannot be written, remove `outputs`, the files the command
        wrote, print nothing and raise."""
        self.items.append(("wall_clock_s", f"{time.perf_counter() - self._t0:.3f}"))
        text = "\n".join(f"{k}={v}" for k, v in self.items) + "\n"
        if path:
            try:
                write_atomic(path, text.encode())
            except BaseException:
                for output in outputs:
                    if output:
                        os.unlink(output)
                raise
        sys.stdout.write(report + text)


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise FormatError(f"{path}:{ln}: expected key=value, got {raw.strip()!r}")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise FormatError(f"cannot read config file {path}: {exc}") from exc
    return values


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _seed(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _parse_ints(raw: str):
    return tuple(int(tok) for tok in raw.split(","))


def _parse_hidden(raw: str):
    raw = raw.strip()
    if not raw or raw == "none":
        return ()
    return _parse_ints(raw)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    manifest = _Manifest("synth", args.seed)
    tiers = tuple(t.strip() for t in args.tiers.split(","))
    with manifest.phase("generate"):
        dataset = generate_synthetic(args.classes, args.per_class, tiers, seed=args.seed)
    with manifest.phase("write"):
        save_patches(dataset, args.output)
    manifest.add("output", args.output)
    manifest.add("patches", len(dataset))
    manifest.add("classes", args.classes)
    manifest.add("workers", numerics.WORKERS)
    manifest.emit(args.manifest, [args.output])
    return 0


def _cmd_describe(args) -> int:
    manifest = _Manifest("describe", None)
    with manifest.phase("load"):
        dataset = load_patches(args.input)
    t0 = time.perf_counter()
    with manifest.phase("describe"):
        dset = extract_descriptors(dataset)
    elapsed = time.perf_counter() - t0
    with manifest.phase("write"):
        save_descriptors(dset, args.output, precision=args.precision)
    manifest.add("input", args.input)
    manifest.add("output", args.output)
    manifest.add("descriptors", len(dset))
    manifest.add("dim", dset.dim)
    if len(dset):
        manifest.add("describe_us_per_patch", f"{elapsed / len(dset) * 1e6:.3f}")
    manifest.add("workers", numerics.WORKERS)
    manifest.emit(args.manifest, [args.output])
    return 0


def _cmd_fit_pca(args) -> int:
    manifest = _Manifest("fit-pca", None)
    with manifest.phase("load"):
        dset = load_descriptors(args.input)
    with manifest.phase("fit"):
        model = fit_pca(dset, args.dim)
    with manifest.phase("write"):
        save_pca(model, args.output)
    manifest.add("input", args.input)
    manifest.add("output", args.output)
    manifest.add("input_dim", model.input_dim)
    manifest.add("output_dim", model.output_dim)
    manifest.emit(args.manifest, [args.output])
    return 0


# (flag and config-file key, TrainConfig field, config-file parser)
_TRAIN_KEYS = (
    ("scheme", "scheme", str),
    ("dim", "target_dim", int),
    ("hidden", "hidden_sizes", _parse_hidden),
    ("epochs", "epochs", int),
    ("batch-size", "batch_size", int),
    ("lr", "learning_rate", float),
    ("lr-schedule", "lr_schedule", str),
    ("margin", "margin", float),
    ("alpha", "alpha", float),
    ("beta", "beta", float),
    ("use-distance-loss", "use_distance_loss", _parse_bool),
    ("distance-loss-on-positives", "distance_loss_on_positives", _parse_bool),
    ("k", "k", int),
    ("recluster-period", "recluster_period", int),
)
# the fields TrainConfig has no default for; every other default is its own
_TRAIN_DEFAULTS = {"scheme": "sv", "target_dim": 64}


def _train_config(args) -> TrainConfig:
    """The resolved config: each key from its flag, else the config file,
    else its default, then the scheme's defaults for what is still unset.
    A config-file key that is not a train key is a ConfigError."""
    file_cfg = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_cfg) - {key for key, _, _ in _TRAIN_KEYS})
    if unknown:
        raise ConfigError(f"{args.config}: unknown train keys {', '.join(unknown)}")
    given = dict(_TRAIN_DEFAULTS)
    for key, field, parse in _TRAIN_KEYS:
        flag = getattr(args, key.replace("-", "_"))
        if flag is not None:
            given[field] = flag
        elif key in file_cfg:
            raw = file_cfg[key]
            try:
                given[field] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key}={raw!r}: {exc}") from exc
    return TrainConfig(seed=args.seed, **given).resolved()


def _format_log_event(event: dict) -> str:
    keys = [k for k in event if k != "event"]
    return " ".join([f"event={event['event']}"] + [
        f"{k}={_fmt(event[k])}" for k in keys
    ])


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.9g}"
    return value


def _cmd_train(args) -> int:
    manifest = _Manifest("train", args.seed)
    cfg = _train_config(args)
    with manifest.phase("load"):
        dset = load_descriptors(args.input)
    events: list[dict] = []
    with manifest.phase("train"):
        encoder = train_model(dset, cfg, log_fn=events.append)
    with manifest.phase("write"):
        # the log first, so that a failed write of either leaves neither
        if args.log:
            text = "\n".join(_format_log_event(e) for e in events) + "\n"
            write_atomic(args.log, text.encode())
        try:
            save_model(encoder, args.output)
        except BaseException:
            if args.log:
                os.unlink(args.log)
            raise
    manifest.add("input", args.input)
    manifest.add("output", args.output)
    if args.log:
        manifest.add("log", args.log)
    if cfg.scheme == "ss":  # the cluster count training used, default or not
        cfg = replace(cfg, k=next(e["k"] for e in events if e["event"] == "recluster"))
    for key, field, _ in _TRAIN_KEYS:
        manifest.add(f"config.{key}", getattr(cfg, field))
    last_epoch = [e for e in events if e["event"] == "epoch"][-1]
    for key in ("steps_per_epoch", "total_steps", "unused_classes_per_epoch"):
        if key in last_epoch:  # unused classes: sv only
            manifest.add(key, last_epoch[key])
    manifest.add("workers", numerics.WORKERS)
    manifest.emit(args.manifest, [args.output, args.log])
    return 0


# model file magic -> (loader, projection); a projection takes (model, set)
# and returns a set of unit or zero rows
_PROJECTORS = {
    b"DNN1": (load_model, reduce_set),
    b"DPC1": (load_pca, pca_transform),
}


def _load_projector(path: str):
    """The model in `path` and its projection, picked by the file magic."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic not in _PROJECTORS:
        raise FormatError(f"{path}: unknown model magic {magic!r}")
    load, projection = _PROJECTORS[magic]
    return load(path), projection


def _cmd_reduce(args) -> int:
    manifest = _Manifest("reduce", None)
    with manifest.phase("load"):
        dset = load_descriptors(args.input)
        model, projection = _load_projector(args.model)
    t0 = time.perf_counter()
    with manifest.phase("project"):
        reduced = projection(model, dset)
    elapsed = time.perf_counter() - t0
    with manifest.phase("write"):
        save_descriptors(reduced, args.output, precision=args.precision)
    manifest.add("input", args.input)
    manifest.add("model", args.model)
    manifest.add("output", args.output)
    manifest.add("input_dim", model.input_dim)
    manifest.add("output_dim", model.output_dim)
    manifest.add("workers", numerics.WORKERS)
    if len(dset):
        manifest.add("projection_us_per_descriptor",
                     f"{elapsed / len(dset) * 1e6:.3f}")
    manifest.emit(args.manifest, [args.output])
    return 0


def _cmd_eval(args) -> int:
    manifest = _Manifest("eval", args.seed)
    with manifest.phase("load"):
        dset = load_descriptors(args.input)
    with manifest.phase("evaluate"):
        if args.task == "verification":
            report = eval_verification(dset, pairs_per_tier=args.pairs_per_tier,
                                       seed=args.seed)
        elif args.task == "matching":
            report = eval_matching(dset, seed=args.seed)
        else:
            report = eval_retrieval(dset, distractors_per_query=args.distractors,
                                    seed=args.seed)
    text = "\n".join(report.lines()) + "\n"
    if args.output:
        write_atomic(args.output, text.encode())
        manifest.add("output", args.output)
    manifest.add("input", args.input)
    manifest.add("task", args.task)
    manifest.add("map_overall", f"{report.map_overall:.6f}")
    manifest.add("workers", numerics.WORKERS)
    manifest.emit(args.manifest, [args.output], report=text)
    return 0


def _cmd_sweep(args) -> int:
    manifest = _Manifest("sweep", args.seed)
    layer_counts, sizes = args.layers, args.sizes
    if any(c not in (0, 1, 2) for c in layer_counts):
        raise ConfigError(f"layer counts must be within 0..2, got {list(layer_counts)}")
    with manifest.phase("load"):
        train_set = load_descriptors(args.train_file)
        eval_set = load_descriptors(args.eval_file)
    rows = []
    with manifest.phase("sweep"):
        for layers in layer_counts:
            # without hidden layers the size sets nothing: one cell, size "-"
            for size in sizes if layers else ("-",):
                cfg = TrainConfig(
                    scheme=args.scheme,
                    target_dim=args.dim,
                    hidden_sizes=(size,) * layers,
                    epochs=args.epochs,
                    batch_size=args.batch_size,
                    seed=args.seed,
                )
                encoder = train_model(train_set, cfg)
                reduced = reduce_set(encoder, eval_set)
                report = eval_matching(reduced, seed=args.seed)
                rows.append((layers, size, report.map_overall))
    lines = ["layers size matching_map"]
    lines += [f"{layers} {size} {value:.6f}" for layers, size, value in rows]
    text = "\n".join(lines) + "\n"
    if args.output:
        write_atomic(args.output, text.encode())
        manifest.add("output", args.output)
    manifest.add("cells", len(rows))
    manifest.emit(args.manifest, [args.output], report=text)
    return 0


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="desclite", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("synth", help="generate a synthetic patch dataset (DPT1)")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--tiers", default=",".join(TIER_NAMES))
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-m", "--manifest")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("describe", help="extract built-in descriptors (DPT1 -> DDR1)")
    p.add_argument("input")
    p.add_argument("--precision", type=int, choices=(4, 8), default=8)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-m", "--manifest")
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("fit-pca", help="fit the PCA baseline (DDR1 -> DPC1)")
    p.add_argument("input")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-m", "--manifest")
    p.set_defaults(func=_cmd_fit_pca)

    p = sub.add_parser("train", help="train an encoder (DDR1 -> DNN1)")
    p.add_argument("input")
    p.add_argument("--config", help="key=value config file; flags win")
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--dim", type=int)
    p.add_argument("--hidden", type=_parse_hidden)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lr-schedule", choices=("none", "linear"))
    p.add_argument("--margin", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--use-distance-loss", action="store_const", const=True)
    p.add_argument("--distance-loss-on-positives", action="store_const", const=True)
    p.add_argument("--k", type=int)
    p.add_argument("--recluster-period", type=int)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--log", help="write the line-oriented training log here")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-m", "--manifest")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("reduce", help="project descriptors through a model")
    p.add_argument("input")
    p.add_argument("--model", required=True, help="DNN1 or DPC1 file")
    p.add_argument("--precision", type=int, choices=(4, 8), default=8)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-m", "--manifest")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("eval", help="evaluate a descriptor file on one task")
    p.add_argument("input")
    p.add_argument("--task", choices=("verification", "matching", "retrieval"),
                   required=True)
    p.add_argument("--pairs-per-tier", type=int, default=1000)
    p.add_argument("--distractors", type=int, default=50)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("-o", "--output")
    p.add_argument("-m", "--manifest")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="hidden-layer ablation grid (matching mAP)")
    p.add_argument("train_file")
    p.add_argument("eval_file")
    p.add_argument("--scheme", choices=SCHEMES, default="sv")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--layers", type=_parse_ints, default="0,1,2")
    p.add_argument("--sizes", type=_parse_ints, default="96,128,256,512,1024")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("-o", "--output")
    p.add_argument("-m", "--manifest")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, ShapeError) as exc:
        print(f"desclite: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (NumericError, StateError) as exc:
        print(f"desclite: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConfigError as exc:
        print(f"desclite: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"desclite: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
