import contextlib
import dataclasses
import io
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import harmonic_signal, white_noise

from harmonmf import nmf
from harmonmf.cli import (CliError, _shapes_fit, build_config, main, make_parser,
                          parse_config_file)
from harmonmf.dictionary import load_noise_shapes
from harmonmf.enhance import EnhanceConfig
from harmonmf.signal_io import read_wav, write_wav
from harmonmf.stft import stft

SMALL = """
L = 3
m = 1
p_star = 6
r = 2
m_n = 2
iterations = 2
seed = 0
"""


@pytest.fixture
def workdir(tmp_path):
    write_wav(harmonic_signal(seconds=1.0), tmp_path / "clean.wav")
    write_wav(white_noise(seconds=3.0, seed=7), tmp_path / "noise.wav")
    (tmp_path / "small.cfg").write_text(SMALL)
    return tmp_path


def run_train(workdir):
    rc = main(["train-noise", str(workdir / "noise.wav"),
               str(workdir / "shapes.nshp"),
               "--config", str(workdir / "small.cfg")])
    assert rc == 0
    return workdir / "shapes.nshp"


def test_train_noise_writes_shapes(workdir, capsys):
    path = run_train(workdir)
    shapes = load_noise_shapes(path)
    assert shapes.n_matrix.shape == (129, 2)
    assert "KL" in capsys.readouterr().out


def test_train_noise_prints_refit_kl(workdir, capsys):
    """The printed KL is that of a gains-only refit over the trained shapes."""
    path = run_train(workdir)
    printed = capsys.readouterr().out
    config, _ = build_config(make_parser().parse_args(
        ["train-noise", "--config", str(workdir / "small.cfg")]))
    mag = stft(read_wav(workdir / "noise.wav"), config.frame_params()).magnitude()
    shapes = load_noise_shapes(path)
    groups = [nmf.BasisGroup(psi=None, coeffs=[[col]], kind="noise")
              for col in shapes.n_matrix.T]
    settings = nmf.SolverSettings(lambda_speech=0.0, lambda_noise=0.0, alpha=0.0,
                                  iterations=config.iterations, seed=config.seed)
    refit = nmf.solve(mag.values, groups, settings, mode="lin",
                      frozen_dictionary=True)
    kl = nmf.kl_divergence(mag.values, refit.dictionary @ refit.gains)
    assert _shapes_fit(shapes, mag, config) == kl
    assert f"final KL divergence: {kl:.6g}" in printed


def test_train_noise_full_r16_header(tmp_path):
    write_wav(white_noise(seconds=10.0, seed=1), tmp_path / "n.wav")
    rc = main(["train-noise", str(tmp_path / "n.wav"), str(tmp_path / "s.nshp")])
    assert rc == 0
    shapes = load_noise_shapes(tmp_path / "s.nshp")
    assert shapes.n_matrix.shape == (129, 16)


def test_train_noise_deterministic(workdir):
    a = run_train(workdir).read_bytes()
    b = run_train(workdir).read_bytes()
    assert a == b


def test_train_noise_too_short(tmp_path, capsys):
    write_wav(white_noise(seconds=1.0, seed=2), tmp_path / "short.wav")
    rc = main(["train-noise", str(tmp_path / "short.wav"),
               str(tmp_path / "s.nshp")])
    assert rc == 1
    assert "too short" in capsys.readouterr().err
    assert not (tmp_path / "s.nshp").exists()


def test_enhance_command(workdir):
    shapes = run_train(workdir)
    out = workdir / "out.wav"
    rc = main(["enhance", str(workdir / "clean.wav"), str(shapes), str(out),
               "--config", str(workdir / "small.cfg")])
    assert rc == 0
    result = read_wav(out)
    assert len(result) == len(read_wav(workdir / "clean.wav"))


def test_enhance_byte_identical_reruns(workdir):
    shapes = run_train(workdir)
    args = ["enhance", str(workdir / "clean.wav"), str(shapes),
            str(workdir / "out.wav"), "--config", str(workdir / "small.cfg")]
    assert main(args) == 0
    first = (workdir / "out.wav").read_bytes()
    assert main(args) == 0
    assert (workdir / "out.wav").read_bytes() == first


def test_enhance_modes_differ(workdir):
    shapes = run_train(workdir)
    base = ["enhance", str(workdir / "clean.wav"), str(shapes)]
    cfg = ["--config", str(workdir / "small.cfg")]
    assert main(base + [str(workdir / "lin.wav")] + cfg + ["--mode", "lin"]) == 0
    assert main(base + [str(workdir / "dense.wav")] + cfg + ["--mode", "dense"]) == 0
    assert (workdir / "lin.wav").read_bytes() != \
        (workdir / "dense.wav").read_bytes()


def test_enhance_dump_diagnostics(workdir):
    shapes = run_train(workdir)
    out = workdir / "out.wav"
    rc = main(["enhance", str(workdir / "clean.wav"), str(shapes), str(out),
               "--config", str(workdir / "small.cfg"), "--dump-diagnostics"])
    assert rc == 0
    trace = (workdir / "out_trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,kl,sparsity_term,density_term,total"
    assert len(trace) == 2 + 2  # header + initial + 2 iterations
    assert (workdir / "out_speech.pgm").exists()
    assert (workdir / "out_speech.csv").exists()


def test_evaluate_rows(workdir, capsys):
    shapes = run_train(workdir)
    capsys.readouterr()  # drop train-noise output
    rc = main(["evaluate", str(workdir / "clean.wav"), str(workdir / "noise.wav"),
               str(shapes), "--config", str(workdir / "small.cfg"),
               "--snr-list", "0,5", "--free-atoms", "3", "--oracle-atoms", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "method,input_snr_db,output_snr_db"
    assert len(lines) == 1 + 2 * 4
    for line in lines[1:]:
        method, snr_in, snr_out = line.split(",")
        assert method in ("lin", "dense", "plain", "oracle")
        assert np.isfinite(float(snr_out))


def test_evaluate_empty_list(workdir, capsys):
    shapes = run_train(workdir)
    capsys.readouterr()  # drop train-noise output
    rc = main(["evaluate", str(workdir / "clean.wav"), str(workdir / "noise.wav"),
               str(shapes), "--config", str(workdir / "small.cfg"),
               "--snr-list", ""])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["method,input_snr_db,output_snr_db"]


def test_sweep_rows(workdir):
    shapes = run_train(workdir)
    out = workdir / "sweep.csv"
    rc = main(["sweep", str(workdir / "clean.wav"), str(workdir / "noise.wav"),
               str(shapes), str(out), "--config", str(workdir / "small.cfg"),
               "--L-list", "2,4", "--lambda-list", "0.2,1.0", "--m", "1"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "L,lambda_s,total_atoms,output_snr_db"
    assert len(lines) == 5
    lams = [float(l.split(",")[1]) for l in lines[1:]]
    assert lams == [0.2, 1.0, 0.2, 1.0]


@pytest.mark.parametrize("m_line, m", [("m = 3", 3), ("", 5)])
def test_sweep_m_from_config_file(workdir, m_line, m):
    """The sweep's own default m = 5 sits below the config file."""
    shapes = run_train(workdir)
    cfg = workdir / "sweep.cfg"
    cfg.write_text(SMALL.replace("\nm = 1\n", f"\n{m_line}\n"))
    out = workdir / "sweep.csv"
    rc = main(["sweep", str(workdir / "clean.wav"), str(workdir / "noise.wav"),
               str(shapes), str(out), "--config", str(cfg),
               "--L-list", "2,4", "--lambda-list", "0.2"])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [int(n) for _, _, n, _ in rows] == [int(L) * m + 2 for L, _, _, _ in rows]


@pytest.mark.parametrize("L_list, pools", [("2,4", [2]), ("2", [])])
def test_sweep_jobs_capped_at_cell_count(workdir, monkeypatch, L_list, pools):
    """--jobs 8 starts one worker per cell at most, and no pool for one cell."""
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    shapes = run_train(workdir)
    out = workdir / "sweep.csv"
    rc = main(["sweep", str(workdir / "clean.wav"), str(workdir / "noise.wav"),
               str(shapes), str(out), "--config", str(workdir / "small.cfg"),
               "--L-list", L_list, "--lambda-list", "0.2", "--jobs", "8"])
    assert rc == 0
    assert started == pools
    assert len(out.read_text().splitlines()) == 1 + len(L_list.split(","))


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_jobs_below_one_rejected(workdir, capsys, jobs):
    shapes = run_train(workdir)
    capsys.readouterr()  # drop train-noise output
    out = workdir / "sweep.csv"
    rc = main(["sweep", str(workdir / "clean.wav"), str(workdir / "noise.wav"),
               str(shapes), str(out), "--config", str(workdir / "small.cfg"),
               "--jobs", jobs])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "--jobs" in lines[0]
    assert not out.exists()


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 3\n")
    with pytest.raises(CliError, match="unknown key"):
        parse_config_file(cfg)


def test_config_parsing(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("# comment\nL = 7  # inline\nlambda_s = 0.5\nmode = lin\n"
                   "noise_wav = /x/y.wav\n")
    values = parse_config_file(cfg)
    assert values == {"L": 7, "lambda_s": 0.5, "mode": "lin",
                      "noise_wav": "/x/y.wav"}


def test_flag_overrides_config(workdir):
    shapes = run_train(workdir)
    out1, out2 = workdir / "s1.wav", workdir / "s2.wav"
    base = ["enhance", str(workdir / "clean.wav"), str(shapes)]
    cfg = ["--config", str(workdir / "small.cfg")]
    assert main(base + [str(out1)] + cfg) == 0
    assert main(base + [str(out2)] + cfg + ["--seed", "99"]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_missing_path_is_clean_error(capsys):
    rc = main(["enhance"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["train-noise", "enhance", "evaluate"])
def test_jobs_rejected_outside_sweep(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_sweep_parses_jobs():
    args = make_parser().parse_args(["sweep", "out.csv", "--jobs", "3"])
    assert args.jobs == 3


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A clean WAV and the .nshp trained from noise, for truncation tests."""
    d = tmp_path_factory.mktemp("valid")
    write_wav(harmonic_signal(seconds=1.0), d / "clean.wav")
    write_wav(white_noise(seconds=3.0, seed=7), d / "noise.wav")
    (d / "small.cfg").write_text(SMALL)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train-noise", str(d / "noise.wav"), str(d / "shapes.nshp"),
                     "--config", str(d / "small.cfg")]) == 0
    return d


# each example is cheap: four times the profile's count, 100 by default
@settings(max_examples=4 * settings.default.max_examples)
@given(which=st.sampled_from(["clean.wav", "shapes.nshp"]), data=st.data())
def test_truncated_input_is_one_line_error(valid_inputs, which, data):
    blob = (valid_inputs / which).read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {name: valid_inputs / name for name in ("clean.wav", "shapes.nshp")}
        inputs[which] = Path(tmp) / which
        inputs[which].write_bytes(blob[:cut])
        out = Path(tmp) / "out.wav"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["enhance", str(inputs["clean.wav"]),
                       str(inputs["shapes.nshp"]), str(out),
                       "--config", str(valid_inputs / "small.cfg")])
        assert rc == 1
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out.exists()


def test_fractional_sample_rate_is_one_line_error(valid_inputs, tmp_path, capsys):
    """A .nshp header rate of 8000.5 Hz is rejected, not truncated to 8000."""
    blob = bytearray((valid_inputs / "shapes.nshp").read_bytes())
    struct.pack_into("<d", blob, 12, 8000.5)  # after the magic, K and r
    shapes = tmp_path / "shapes.nshp"
    shapes.write_bytes(blob)
    out = tmp_path / "out.wav"
    rc = main(["enhance", str(valid_inputs / "clean.wav"), str(shapes), str(out),
               "--config", str(valid_inputs / "small.cfg")])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "bad sample rate" in lines[0]
    assert not out.exists()


BAD_CONFIG = [
    ("sr", "0"), ("window_ms", "inf"), ("window_ms", "0.1"), ("overlap", "1.0"),
    ("f_min", "0"), ("f_max", "4000"), ("L", "1"), ("m", "0"), ("m", "-1"),
    ("p_star", "0"), ("r", "0"), ("m_n", "0"), ("lambda_s", "nan"),
    ("lambda_n", "-0.5"), ("alpha", "inf"), ("iterations", "0"),
    ("mode", "plain"), ("seed", "-1"),
    ("window_ms", "1e306"),  # sr * window_ms overflows to inf
    ("sr", "1" + "0" * 400),  # sr / 2 overflows
    # window_len >= 2**32 samples does not fit the .nshp header's u32
    ("window_ms", "1e300"), ("window_ms", "1e9"),
]


@pytest.mark.parametrize("command", ["enhance", "train-noise"])
@pytest.mark.parametrize("key, value", BAD_CONFIG,
                         ids=[f"{k}={v:.20}" for k, v in BAD_CONFIG])
def test_bad_config_value_is_one_line_error(valid_inputs, tmp_path, capsys,
                                            command, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{SMALL}{key} = {value}\n")
    out = tmp_path / "out"
    inputs = {"enhance": ["clean.wav", "shapes.nshp"], "train-noise": ["noise.wav"]}
    rc = main([command, *(str(valid_inputs / name) for name in inputs[command]),
               str(out), "--config", str(cfg)])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and key in lines[0]
    assert not out.exists()


# Far beyond any address space (8e15 bytes or more per array), so the
# allocation fails at once; never a size a machine could try to allocate.
HUGE_SIZES = ["m", "m_n", "L"]


@pytest.mark.parametrize("key", HUGE_SIZES)
def test_huge_size_is_one_line_error(valid_inputs, tmp_path, capsys, key):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"{SMALL}{key} = {10**15}\n")
    out = tmp_path / "out.wav"
    rc = main(["enhance", str(valid_inputs / "clean.wav"),
               str(valid_inputs / "shapes.nshp"), str(out), "--config", str(cfg)])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not out.exists()


# command, bad flag and value; every input path is missing, so the flag must
# be checked before any input is read or any output printed
BAD_FLAGS = [("evaluate", "--free-atoms", "0"),
             ("evaluate", "--oracle-atoms", "0"),
             ("evaluate", "--snr-list", "0,x"),
             ("evaluate", "--snr-list", "0,nan"),
             ("sweep", "--L-list", "x"),
             ("sweep", "--lambda-list", "0.2,"),
             ("sweep", "--lambda-list", "inf"),
             ("sweep", "--L-list", "2,3,1"),
             ("sweep", "--lambda-list", "0.2,-1")]


@pytest.mark.parametrize("command, flag, value", BAD_FLAGS)
def test_bad_flag_reported_before_inputs(tmp_path, capsys, command, flag, value):
    missing = [str(tmp_path / name)
               for name in ("clean.wav", "noise.wav", "shapes.nshp")]
    out = [str(tmp_path / "sweep.csv")] if command == "sweep" else []
    rc = main([command, *missing, *out, f"{flag}={value}"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and flag in lines[0]
    assert not (tmp_path / "sweep.csv").exists()


CONFIG_TYPES = {f.name: f.type for f in dataclasses.fields(EnhanceConfig)}
# 0 is a valid weight or seed; a huge weight or seed is valid, and a huge L,
# m, m_n, p_star, r or iterations is valid but costs memory or time.
ZERO_VALID = {"lambda_s", "lambda_n", "alpha", "seed"}
HUGE_INVALID = {"sr", "window_ms", "overlap", "f_min", "f_max", "mode"}


@st.composite
def bad_config_values(draw):
    """(key, value text) with a value that EnhanceConfig or the parser must
    reject: non-finite, negative or zero, huge, or unparsable."""
    key = draw(st.sampled_from(sorted(CONFIG_TYPES)))
    kind = draw(st.sampled_from(["non-finite", "non-positive", "unparsable"]
                                + (["huge"] if key in HUGE_INVALID else [])))
    if kind == "non-finite":
        return key, draw(st.sampled_from(["inf", "-inf", "nan"]))
    if kind == "unparsable":  # no digits, and no letters of inf, nan, lin, dense
        return key, draw(st.text(alphabet="abcxyz.-+_", min_size=1))
    if kind == "huge":
        if CONFIG_TYPES[key] == "int":
            return key, str(draw(st.integers(min_value=2**1024, max_value=10**400)))
        return key, repr(draw(st.floats(min_value=1e305, allow_infinity=False)))
    if CONFIG_TYPES[key] == "int":
        return key, str(draw(st.integers(max_value=-1 if key in ZERO_VALID else 0)))
    value = draw(st.floats(max_value=0.0, allow_nan=False, allow_infinity=False))
    if key in ZERO_VALID and value == 0:
        value = -1.0
    return key, repr(value)


@pytest.mark.parametrize("command", ["enhance", "train-noise"])
# each example is cheap: four times the profile's count, 100 by default
@settings(max_examples=4 * settings.default.max_examples)
@given(bad=bad_config_values())
def test_generated_bad_config_is_one_line_error(valid_inputs, command, bad):
    key, value = bad
    inputs = {"enhance": ["clean.wav", "shapes.nshp"], "train-noise": ["noise.wav"]}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "bad.cfg"
        cfg.write_text(f"{SMALL}{key} = {value}\n")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main([command, *(str(valid_inputs / n) for n in inputs[command]),
                       str(out), "--config", str(cfg)])
        assert rc == 1
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out.exists()
