"""Command-line frontend: noise training, enhancement, evaluation and sweeps.

Precedence for every setting: command-line flag > config file > built-in
default.  Every CSV, PGM and stdout table is formatted here.  All file
outputs are written to a temp file and renamed on success, so failures
leave no partial output.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import os
import sys
import tempfile

import numpy as np

from .enhance import (EnhanceConfig, enhance as run_enhance, enhance_oracle,
                      enhance_plain, oracle_speech_atoms, sweep_atoms_sparsity)
from .dictionary import (load_noise_shapes, save_noise_shapes, shapes_fit,
                         train_noise_shapes)
from .signal_io import check_snr_target, mix_at_snr, read_wav, snr_db, write_wav
from .stft import stft

MIN_NOISE_SECONDS = 2.0
_PGM_FLOOR = 1e-10
_PATH_KEYS = ("noise_wav", "noisy_wav", "clean_wav", "shapes_file", "out_dir")
# EnhanceConfig's annotations are postponed, so each field's type is a string
_CONFIG_KEYS = {f.name: {"int": int, "float": float, "str": str}[f.type]
                for f in dataclasses.fields(EnhanceConfig)}


class CliError(Exception):
    pass


def parse_config_file(path) -> dict:
    """Line-oriented key = value pairs, '#' comments, in UTF-8 text; unknown
    keys are errors, and every error names path:lineno."""
    values = {}
    # each byte that is not UTF-8 decodes to a lone surrogate, U+DC80..U+DCFF
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if any("\udc80" <= c <= "\udcff" for c in line):
                raise CliError(f"{path}:{lineno}: not UTF-8 text")
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key in values:
                raise CliError(f"{path}:{lineno}: duplicate key {key!r}")
            if key in _PATH_KEYS:
                values[key] = raw
            elif key in _CONFIG_KEYS:
                try:
                    values[key] = _CONFIG_KEYS[key](raw)
                except ValueError:
                    raise CliError(f"{path}:{lineno}: bad value for {key!r}: {raw!r}")
            else:
                raise CliError(f"{path}:{lineno}: unknown key {key!r}")
    return values


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


def _output(path):
    """path, once it names a file in an existing directory: outputs are
    written last, so a missing directory, or a directory given as the
    output, is reported before any input is read."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise CliError(f"cannot write {path}: not a file in an existing directory")
    return path


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


def write_rows(rows, path=None) -> None:
    """One comma-joined line per row, ended by "\\n", to path, or to stdout
    when path is None: a str as it is, any other value by repr."""
    with open(path, "w", newline="\n") if path else contextlib.nullcontext() as fh:
        for row in rows:
            print(",".join(v if isinstance(v, str) else repr(v) for v in row), file=fh)


def write_pgm(mag, path) -> None:
    """Log-magnitude spectrogram, floored at _PGM_FLOOR, as binary 8-bit PGM,
    min-max normalized, frequency increasing from the bottom row up."""
    logm = np.log10(np.maximum(mag.values, _PGM_FLOOR))
    lo, hi = logm.min(), logm.max()
    scaled = np.zeros_like(logm) if hi == lo else (logm - lo) / (hi - lo)
    img = np.flipud(np.round(scaled * 255).astype(np.uint8))
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def cmd_train_noise(args) -> int:
    config, paths = build_config(args)
    noise_path = _resolve("noise_wav", args.noise_wav, paths)
    out_path = _output(_resolve("shapes_file", args.out_shapes, paths))
    noise = read_wav(noise_path)
    if noise.sample_rate != config.sr:
        raise CliError(f"{noise_path}: sample rate {noise.sample_rate} != {config.sr}")
    if noise.duration < MIN_NOISE_SECONDS:
        raise CliError(f"{noise_path}: noise sample too short "
                       f"({noise.duration:.2f} s < {MIN_NOISE_SECONDS} s)")
    # float32 samples (exact for 16-bit PCM), analysed straight to the
    # float32 magnitude the float32 fit takes without a copy; no complex
    # spectrum is built, and the samples are dropped before the fit
    noise = dataclasses.replace(noise, samples=noise.samples.astype("float32"))
    mag = stft(noise, config.frame_params(), magnitude=True)
    del noise
    shapes = train_noise_shapes(mag, config.r, seed=config.seed)
    fit = shapes_fit(shapes, mag, config.iterations, config.seed)
    _atomic(out_path, lambda tmp: save_noise_shapes(shapes, tmp))
    print(f"final KL divergence: {fit:.6g}")
    return 0


def cmd_enhance(args) -> int:
    config, paths = build_config(args)
    noisy_path = _resolve("noisy_wav", args.noisy_wav, paths)
    shapes_path = _resolve("shapes_file", args.shapes, paths)
    out_path = _output(args.out_wav
                       or os.path.join(paths.get("out_dir", "."), "denoised.wav"))
    noisy = read_wav(noisy_path)
    shapes = load_noise_shapes(shapes_path)
    result = run_enhance(noisy, shapes, config, trace=args.dump_diagnostics)
    _atomic(out_path, lambda tmp: write_wav(result.denoised, tmp))
    if args.dump_diagnostics:
        base, speech = os.path.splitext(out_path)[0], result.speech_magnitude
        trace = [("iteration", "kl", "sparsity_term", "density_term", "total"),
                 *((p.iteration, p.kl, p.sparsity_term, p.density_term, p.total)
                   for p in result.objective_trace)]
        _atomic(base + "_trace.csv", lambda tmp: write_rows(trace, tmp))
        _atomic(base + "_speech.pgm", lambda tmp: write_pgm(speech, tmp))
        _atomic(base + "_speech.csv", lambda tmp: np.savetxt(  # one row per bin
            tmp, speech.values, delimiter=",", newline="\n"))
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


def _check_snr_targets(flag, values):
    """Each value must be a target SNR that mix_at_snr accepts."""
    for value in values:
        try:
            check_snr_target(value)
        except ValueError as exc:
            raise CliError(f"{flag}: {exc}") from None


def _require_positive(flag, value):
    """A flag given (not None) must be at least 1."""
    if value is not None and value < 1:
        raise CliError(f"{flag} must be at least 1, got {value}")


def cmd_evaluate(args) -> int:
    _require_positive("--free-atoms", args.free_atoms)
    _require_positive("--oracle-atoms", args.oracle_atoms)
    snr_values = _parse_list("--snr-list", args.snr_list, float)
    _check_snr_targets("--snr-list", snr_values)
    config, paths = build_config(args)
    clean_path = _resolve("clean_wav", args.clean_wav, paths)
    clean = read_wav(clean_path)
    # the oracle fits clean unpadded: refuse a clip shorter than one window
    # here, not after lin, dense and plain have solved
    if len(clean) < config.frame_params().window_len:
        raise CliError(f"{clean_path}: shorter than the oracle fit's analysis window")
    noise = read_wav(_resolve("noise_wav", args.noise_wav, paths))
    shapes = load_noise_shapes(_resolve("shapes_file", args.shapes, paths))
    # the oracle's speech group depends on the clean signal alone: fit it
    # once, on first use, after a pipeline has checked the inputs
    oracle = functools.cache(lambda: oracle_speech_atoms(clean, config, args.oracle_atoms))
    for i, target in enumerate(snr_values):
        noisy, _ = mix_at_snr(clean, noise, target)
        # plain first, then the oracle's fit: a --free-atoms too large to
        # allocate fails before any solve, an --oracle-atoms one after plain's
        plain = enhance_plain(noisy, shapes, config, free_atoms=args.free_atoms,
                              trace=False)
        oracle()
        results = {
            "lin": run_enhance(noisy, shapes,
                               dataclasses.replace(config, mode="lin"),
                               trace=False),
            "dense": run_enhance(noisy, shapes,
                                 dataclasses.replace(config, mode="dense"),
                                 trace=False),
            "plain": plain,
            "oracle": enhance_oracle(noisy, oracle(), shapes, config, trace=False),
        }
        if i == 0:  # once the first enhance has checked the inputs
            write_rows([("method", "input_snr_db", "output_snr_db")])
        write_rows((method, target, snr_db(clean, result.denoised))
                   for method, result in results.items())
    return 0


def cmd_sweep(args) -> int:
    _require_positive("--jobs", args.jobs)
    _check_snr_targets("--input-snr", [args.input_snr])
    _output(args.out_csv)
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
    _atomic(args.out_csv, lambda tmp: write_rows(
        [("L", "lambda_s", "total_atoms", "output_snr_db"), *rows], tmp))
    print(f"wrote {args.out_csv}")
    return 0


def _add_common(parser):
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, default=None)


@functools.cache  # built on the first call, not at import; parse_args keeps no state
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
    p.add_argument("--mode", choices=["lin", "dense"], default=None)
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("evaluate", help="SNR evaluation of all methods")
    p.add_argument("clean_wav", nargs="?")
    p.add_argument("noise_wav", nargs="?")
    p.add_argument("shapes", nargs="?")
    p.add_argument("--snr-list", default="-5,0,5,15")
    p.add_argument("--free-atoms", type=int, default=None)  # L * m of the config
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
