"""Command-line frontend: noise training, enhancement, evaluation and sweeps.

Precedence for every setting: command-line flag > config file > built-in
default.  All file outputs are written to a temp file and renamed on
success, so failures leave no partial output.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import tempfile

from . import nmf
from .enhance import (EnhanceConfig, enhance as run_enhance, enhance_oracle,
                      enhance_plain, sweep_atoms_sparsity, write_magnitude_csv,
                      write_pgm, write_sweep_csv)
from .dictionary import load_noise_shapes, save_noise_shapes, train_noise_shapes
from .signal_io import mix_at_snr, read_wav, snr_db, write_wav
from .stft import stft

MIN_NOISE_SECONDS = 2.0
_PATH_KEYS = ("noise_wav", "noisy_wav", "clean_wav", "shapes_file", "out_dir")
_CONFIG_KEYS = {f.name: f.type for f in dataclasses.fields(EnhanceConfig)}


class CliError(Exception):
    pass


def parse_config_file(path) -> dict:
    """Line-oriented key = value pairs, '#' comments; unknown keys are errors."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key in _PATH_KEYS:
                values[key] = raw
            elif key in _CONFIG_KEYS:
                values[key] = _parse_value(key, raw)
            else:
                raise CliError(f"{path}:{lineno}: unknown key {key!r}")
    return values


def _parse_value(key, raw):
    target = _CONFIG_KEYS[key]
    try:
        if target is int or target == "int":
            return int(raw)
        if target is float or target == "float":
            return float(raw)
    except ValueError:
        raise CliError(f"bad value for {key!r}: {raw!r}")
    return raw


def build_config(args, **defaults) -> tuple[EnhanceConfig, dict]:
    """Config and paths from flags, the --config file, then ``defaults`` (a
    subcommand's own protocol values), then EnhanceConfig's defaults."""
    file_values = parse_config_file(args.config) if args.config else {}
    paths = {k: file_values.pop(k) for k in list(file_values) if k in _PATH_KEYS}
    overrides = {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            overrides[key] = flag
    config = dataclasses.replace(EnhanceConfig(),
                                 **{**defaults, **file_values, **overrides})
    return config, paths


def _resolve(name, positional, paths):
    value = positional or paths.get(name)
    if value is None:
        raise CliError(f"missing required path {name!r} (argument or config key)")
    return value


def _atomic(path, write_fn):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".harmonmf-")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_train_noise(args) -> int:
    config, paths = build_config(args)
    noise_path = _resolve("noise_wav", args.noise_wav, paths)
    out_path = _resolve("shapes_file", args.out_shapes, paths)
    noise = read_wav(noise_path)
    if noise.sample_rate != config.sr:
        raise CliError(f"{noise_path}: sample rate {noise.sample_rate} != {config.sr}")
    if noise.duration < MIN_NOISE_SECONDS:
        raise CliError(f"{noise_path}: noise sample too short "
                       f"({noise.duration:.2f} s < {MIN_NOISE_SECONDS} s)")
    mag = stft(noise, config.frame_params()).magnitude()
    shapes = train_noise_shapes(mag, config.r, seed=config.seed)
    fit = _shapes_fit(shapes, mag, config)
    _atomic(out_path, lambda tmp: save_noise_shapes(shapes, tmp))
    print(f"final KL divergence: {fit:.6g}")
    return 0


def _shapes_fit(shapes, mag, config) -> float:
    """KL divergence of a gains-only refit, solved in float64 without a
    trace, at its final point: how well the trained shapes span the noise."""
    group = nmf.BasisGroup(psi=None, coeffs=shapes.n_matrix.T[None],
                           kind="noise")
    settings = nmf.SolverSettings(lambda_speech=0.0, lambda_noise=0.0, alpha=0.0,
                                  iterations=config.iterations, seed=config.seed)
    result = nmf.solve(mag.values, [group], settings, mode="lin",
                       frozen_dictionary=True, trace=False)
    return nmf.kl_divergence(mag.values, result.dictionary @ result.gains)


def cmd_enhance(args) -> int:
    config, paths = build_config(args)
    noisy_path = _resolve("noisy_wav", args.noisy_wav, paths)
    shapes_path = _resolve("shapes_file", args.shapes, paths)
    out_path = args.out_wav or os.path.join(paths.get("out_dir", "."), "denoised.wav")
    noisy = read_wav(noisy_path)
    shapes = load_noise_shapes(shapes_path)
    result = run_enhance(noisy, shapes, config, trace=args.dump_diagnostics)
    _atomic(out_path, lambda tmp: write_wav(result.denoised, tmp))
    if args.dump_diagnostics:
        base = os.path.splitext(out_path)[0]
        _atomic(base + "_trace.csv",
                lambda tmp: nmf.write_trace_csv(result.objective_trace, tmp))
        _atomic(base + "_speech.pgm",
                lambda tmp: write_pgm(result.speech_magnitude, tmp))
        _atomic(base + "_speech.csv",
                lambda tmp: write_magnitude_csv(result.speech_magnitude, tmp))
    print(f"wrote {out_path}")
    return 0


def _parse_list(flag, text, kind):
    """Comma-separated finite values of one flag; a bad value names the flag."""
    try:
        values = [kind(v) for v in text.split(",")]
        if all(math.isfinite(v) for v in values):
            return values
    except ValueError:
        pass
    raise CliError(f"{flag}: bad value in {text!r}")


def _require_positive(flag, value):
    if value < 1:
        raise CliError(f"{flag} must be at least 1, got {value}")


def cmd_evaluate(args) -> int:
    _require_positive("--free-atoms", args.free_atoms)
    _require_positive("--oracle-atoms", args.oracle_atoms)
    snr_values = (_parse_list("--snr-list", args.snr_list, float)
                  if args.snr_list else [])
    config, paths = build_config(args)
    clean = read_wav(_resolve("clean_wav", args.clean_wav, paths))
    noise = read_wav(_resolve("noise_wav", args.noise_wav, paths))
    shapes = load_noise_shapes(_resolve("shapes_file", args.shapes, paths))
    print("method,input_snr_db,output_snr_db")
    for target in snr_values:
        noisy, _ = mix_at_snr(clean, noise, target)
        results = {
            "lin": run_enhance(noisy, shapes,
                               dataclasses.replace(config, mode="lin"),
                               trace=False),
            "dense": run_enhance(noisy, shapes,
                                 dataclasses.replace(config, mode="dense"),
                                 trace=False),
            "plain": enhance_plain(noisy, shapes, config,
                                   free_atoms=args.free_atoms, trace=False),
            "oracle": enhance_oracle(noisy, clean, shapes, config,
                                     oracle_atoms=args.oracle_atoms,
                                     trace=False),
        }
        for method, result in results.items():
            out = snr_db(clean, result.denoised)
            print(f"{method},{target!r},{out!r}")
    return 0


def cmd_sweep(args) -> int:
    _require_positive("--jobs", args.jobs)
    L_values = _parse_list("--L-list", args.L_list, int)
    lambda_values = _parse_list("--lambda-list", args.lambda_list, float)
    config, paths = build_config(args, m=5)  # sweep protocol default
    for flag, key, values in (("--L-list", "L", L_values),
                              ("--lambda-list", "lambda_s", lambda_values)):
        for value in values:  # each cell's config, before any input is read
            try:
                dataclasses.replace(config, mode="dense", **{key: value})
            except ValueError as exc:
                raise CliError(f"{flag}: {exc}") from None
    clean = read_wav(_resolve("clean_wav", args.clean_wav, paths))
    noise = read_wav(_resolve("noise_wav", args.noise_wav, paths))
    shapes = load_noise_shapes(_resolve("shapes_file", args.shapes, paths))
    noisy, _ = mix_at_snr(clean, noise, args.input_snr)
    rows = sweep_atoms_sparsity(noisy, clean, shapes, config,
                                    L_values, lambda_values, jobs=args.jobs)
    _atomic(args.out_csv, lambda tmp: write_sweep_csv(rows, tmp))
    print(f"wrote {args.out_csv}")
    return 0


def _add_common(parser):
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--mode", choices=["lin", "dense"], default=None)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="harmonmf",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-noise", help="train noise shapes from a noise WAV")
    p.add_argument("noise_wav", nargs="?")
    p.add_argument("out_shapes", nargs="?")
    p.add_argument("--r", dest="r", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_train_noise)

    p = sub.add_parser("enhance", help="denoise a WAV with trained noise shapes")
    p.add_argument("noisy_wav", nargs="?")
    p.add_argument("shapes", nargs="?")
    p.add_argument("out_wav", nargs="?")
    p.add_argument("--dump-diagnostics", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("evaluate", help="SNR evaluation of all methods")
    p.add_argument("clean_wav", nargs="?")
    p.add_argument("noise_wav", nargs="?")
    p.add_argument("shapes", nargs="?")
    p.add_argument("--snr-list", default="-5,0,5,15")
    p.add_argument("--free-atoms", type=int, default=132)
    p.add_argument("--oracle-atoms", type=int, default=32)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="atom-count vs sparsity sweep (dense mode)")
    p.add_argument("clean_wav", nargs="?")
    p.add_argument("noise_wav", nargs="?")
    p.add_argument("shapes", nargs="?")
    p.add_argument("out_csv")
    p.add_argument("--L-list", default="2,5,10,20,33,50,75,100")
    p.add_argument("--lambda-list", default="0.2,0.5,1.0")
    p.add_argument("--input-snr", type=float, default=0.0)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a config size too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
