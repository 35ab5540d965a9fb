import contextlib
import csv
import dataclasses
import importlib
import io
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import harmonic_signal, white_noise

from harmonmf import dictionary, nmf
from harmonmf.cli import (CliError, _atomic, build_config, main, make_parser,
                          parse_config_file, write_pgm, write_rows)
from harmonmf.dictionary import load_noise_shapes, shapes_fit
from harmonmf.enhance import (EnhanceConfig, enhance, enhance_oracle,
                              oracle_speech_atoms)
from harmonmf.signal_io import mix_at_snr, read_wav, snr_db, write_wav
from harmonmf.stft import MagnitudeSpectrogram, stft

SMALL = """
L = 3
m = 1
p_star = 6
r = 2
m_n = 2
iterations = 2
seed = 0
"""


def small_with(key, value, **more):
    """SMALL with key set to value, and each key of more likewise: its line
    replaced when SMALL has one, as a config file may name each key once."""
    keys = {key: value, **more}
    lines = [line for line in SMALL.splitlines() if line.split(" =")[0] not in keys]
    return "\n".join(lines + [f"{k} = {v}" for k, v in keys.items()]) + "\n"


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
    """The printed KL is that of a gains-only float32 refit over the trained
    shapes, its KL accumulated in float64."""
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
    refit = nmf.solve(mag.values.astype(np.float32), groups, settings,
                      mode="lin", frozen_dictionary=True)
    kl = nmf.kl_divergence(mag.values, refit.dictionary @ refit.gains)
    assert shapes_fit(shapes, mag, config.iterations, config.seed) == kl
    assert f"final KL divergence: {kl:.6g}" in printed


def test_train_noise_full_r16_header(tmp_path):
    write_wav(white_noise(seconds=10.0, seed=1), tmp_path / "n.wav")
    rc = main(["train-noise", str(tmp_path / "n.wav"), str(tmp_path / "s.nshp")])
    assert rc == 0
    shapes = load_noise_shapes(tmp_path / "s.nshp")
    assert shapes.n_matrix.shape == (129, 16)


def test_train_noise_peak_grows_at_most_1_7_vectors_per_frame(tmp_path):
    """cli train-noise's transient working set: from 4 s to 8 s of noise
    (497 to 997 frames) its peak traced allocation grows by at most 1.7
    float64 K-vectors per added frame.  It measured 1.56 (numpy 2.4).  The
    samples are analysed straight to the float32 magnitude, with no complex
    spectrum, so during the analysis only the samples and the magnitude are
    alive, and the samples are dropped before the fit.  The float32 fit
    takes the magnitude without a copy, and the refit's final KL, whose
    float64 terms are taken a block of rows at a time, sets the peak.
    Building the complex64 spectrum and keeping the samples through the fit
    measured 1.79; a complex128 spectrum and a float64 magnitude cast for
    the fit 3.50, and a KL that also casts and floors the whole model in
    float64 4.48."""
    params = EnhanceConfig().frame_params()

    def peak(seconds):
        path = tmp_path / f"noise{seconds}.wav"
        write_wav(white_noise(seconds=seconds, seed=5), path)
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["train-noise", str(path), str(tmp_path / "s.nshp")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2.0)  # imports and first-call caches outside the compared runs
    frames = {s: (s * 8000 - params.window_len) // params.hop + 1 for s in (4, 8)}
    peaks = {s: peak(float(s)) for s in (4, 8)}
    growth = (peaks[8] - peaks[4]) / ((frames[8] - frames[4]) * params.n_bins * 8)
    print(f"train-noise peak growth: {growth:.2f} float64 K-vectors per frame; "
          f"8 s peak {peaks[8] / 2**20:.2f} MiB")
    assert growth <= 1.7


def test_train_noise_deterministic(workdir):
    a = run_train(workdir).read_bytes()
    b = run_train(workdir).read_bytes()
    assert a == b


def test_train_noise_rate_mismatch_is_one_line_error(tmp_path, capsys):
    """A 16 kHz noise WAV against the 8 kHz default: one line naming both
    rates, and no .nshp written."""
    write_wav(white_noise(seconds=3.0, sr=16000, seed=2), tmp_path / "n16k.wav")
    rc = main(["train-noise", str(tmp_path / "n16k.wav"), str(tmp_path / "s.nshp")])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "16000" in lines[0] and "8000" in lines[0]
    assert not (tmp_path / "s.nshp").exists()


def test_failed_write_leaves_no_output_or_temp_file(tmp_path):
    """A writer that raises part-way leaves neither the output file nor the
    .harmonmf-* temp file it was writing, and the error propagates."""
    def failing(tmp):
        with open(tmp, "w") as fh:
            fh.write("partial")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        _atomic(tmp_path / "out.wav", failing)
    assert list(tmp_path.iterdir()) == []


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
    for it, line in enumerate(trace[1:]):
        iteration, kl, sparsity, density, total = line.split(",")
        assert int(iteration) == it
        assert float(total) == pytest.approx(float(kl) + float(sparsity) + float(density))
    assert (workdir / "out_speech.pgm").exists()
    assert (workdir / "out_speech.csv").exists()


def test_pgm_and_csv_dumps(workdir):
    """--dump-diagnostics' speech magnitude, that of enhance's result: as an
    8-bit PGM of one column per frame and one row per bin, min-max
    normalized, and as CSV of one row per bin that reads back to the same
    values."""
    shapes = run_train(workdir)
    cfg = ["--config", str(workdir / "small.cfg")]
    assert main(["enhance", str(workdir / "clean.wav"), str(shapes),
                 str(workdir / "out.wav"), "--dump-diagnostics", *cfg]) == 0
    config, _ = build_config(make_parser().parse_args(["enhance", *cfg]))
    speech = enhance(read_wav(workdir / "clean.wav"), load_noise_shapes(shapes),
                     config, trace=False).speech_magnitude.values
    K, T = speech.shape
    header = f"P5\n{T} {K}\n255\n".encode()
    data = (workdir / "out_speech.pgm").read_bytes()
    assert data.startswith(header) and len(data) == len(header) + K * T
    pixels = np.frombuffer(data, np.uint8, offset=len(header))
    assert pixels.min() == 0 and pixels.max() == 255
    back = np.loadtxt(workdir / "out_speech.csv", delimiter=",")
    assert np.array_equal(back, speech)


def test_pgm_of_a_flat_spectrogram_is_black(tmp_path, frame_params):
    """A spectrogram of one value, or of values all below the floor, has no
    range to normalize: every pixel is 0."""
    for value in (0.5, 0.0):
        mag = MagnitudeSpectrogram(np.full((frame_params.n_bins, 3), value),
                                   frame_params)
        write_pgm(mag, tmp_path / "flat.pgm")
        header = f"P5\n3 {frame_params.n_bins}\n255\n".encode()
        assert (tmp_path / "flat.pgm").read_bytes() == \
            header + bytes(3 * frame_params.n_bins)


ROW_FLOATS = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e-310,
                     1e308, -1e308]),
    st.floats())
# table -> (its header, a strategy for one of its rows)
TABLES = {
    "trace": (("iteration", "kl", "sparsity_term", "density_term", "total"),
              st.tuples(st.integers(0), ROW_FLOATS, ROW_FLOATS, ROW_FLOATS,
                        ROW_FLOATS)),
    "sweep": (("L", "lambda_s", "total_atoms", "output_snr_db"),
              st.tuples(st.integers(2), ROW_FLOATS, st.integers(1), ROW_FLOATS)),
    "evaluate": (("method", "input_snr_db", "output_snr_db"),
                 st.tuples(st.sampled_from(["lin", "dense", "plain", "oracle"]),
                           ROW_FLOATS, ROW_FLOATS)),
}


@pytest.mark.parametrize("table", list(TABLES))
@given(data=st.data())
def test_generated_rows_match_csv_writer(table, data, tmp_path_factory):
    """write_rows writes exactly the bytes of csv.writer with a "\\n" line
    terminator, fed each str as it is and each number's repr, to a file and
    to stdout alike: for the rows of the trace, the sweep and evaluate,
    with floats including +-inf, nan, -0.0, subnormals and +-1e308 (the CI
    digests cover one finite table of each)."""
    header, row = TABLES[table]
    rows = [header, *data.draw(st.lists(row, max_size=8), label="rows")]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerows([v if isinstance(v, str) else repr(v) for v in r] for r in rows)
    path = tmp_path_factory.getbasetemp() / f"drawn_{table}.csv"
    write_rows(rows, path)
    assert path.read_bytes() == expected.getvalue().encode()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write_rows(rows)
    assert out.getvalue() == expected.getvalue()


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


def test_evaluate_clean_shorter_than_a_window_fails_before_any_solve(workdir, capsys):
    """The oracle fits its speech group on the clean signal without padding,
    so a clean signal shorter than one analysis window (256 samples here)
    is refused before lin, dense and plain have solved."""
    shapes = run_train(workdir)
    capsys.readouterr()
    short = workdir / "short.wav"
    write_wav(harmonic_signal(seconds=0.03), short)  # 240 samples
    with mock.patch.object(nmf, "iterate", wraps=nmf.iterate) as spy:
        rc = main(["evaluate", str(short), str(workdir / "noise.wav"), str(shapes),
                   "--config", str(workdir / "small.cfg"), "--snr-list", "0"])
    assert rc == 1 and spy.call_count == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {short}: shorter than the oracle fit's analysis window\n"


def test_evaluate_plain_defaults_to_L_times_m_columns(workdir, monkeypatch):
    """Without --free-atoms the plain baseline has as many speech columns as
    lin and dense have harmonic atoms: the config's L * m, 3 * 1 here, as
    each solve receives them (the oracle's fit solves a noise group only)."""
    shapes = run_train(workdir)
    solve, speech_columns = nmf.solve, []
    monkeypatch.setattr(nmf, "solve", lambda Y, groups, *args, **kw:
                        speech_columns.extend(g.n_atoms for g in groups
                                              if g.kind == "speech")
                        or solve(Y, groups, *args, **kw))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["evaluate", str(workdir / "clean.wav"), str(workdir / "noise.wav"),
                     str(shapes), "--config", str(workdir / "small.cfg"),
                     "--snr-list", "0", "--oracle-atoms", "5"]) == 0
    assert speech_columns == [3, 3, 3, 5]  # lin, dense, plain, oracle


def test_evaluate_fits_oracle_once(workdir, capsys, monkeypatch):
    """evaluate fits the oracle's dictionary once per run, and its oracle rows
    are those of enhance_oracle over a group fit anew for each mixture:
    the frozen solves leave the shared group's coefficients unchanged."""
    shapes = run_train(workdir)
    capsys.readouterr()  # drop train-noise output
    fits = []
    enhance_module = importlib.import_module("harmonmf.enhance")  # not the function
    fit = enhance_module.fit_free_dictionary
    monkeypatch.setattr(enhance_module, "fit_free_dictionary",
                        lambda *args: fits.append(args) or fit(*args))
    assert main(["evaluate", str(workdir / "clean.wav"), str(workdir / "noise.wav"),
                 str(shapes), "--config", str(workdir / "small.cfg"),
                 "--snr-list", "0,5,10", "--oracle-atoms", "3"]) == 0
    assert len(fits) == 1
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("oracle,")]
    config, _ = build_config(make_parser().parse_args(
        ["evaluate", "--config", str(workdir / "small.cfg")]))
    clean, noise = read_wav(workdir / "clean.wav"), read_wav(workdir / "noise.wav")
    expected = []
    for target in (0.0, 5.0, 10.0):
        noisy, _ = mix_at_snr(clean, noise, target)
        result = enhance_oracle(noisy, oracle_speech_atoms(clean, config, 3),
                                load_noise_shapes(shapes), config, trace=False)
        expected.append(f"oracle,{target!r},{snr_db(clean, result.denoised)!r}")
    assert rows == expected


def test_evaluate_shapes_mismatch_fails_before_oracle_fit(workdir, capsys,
                                                          monkeypatch):
    """Shapes trained with other frame parameters end evaluate in one error
    line, raised by the pipeline's one shapes check before the oracle's
    dictionary is fit, and with an empty stdout: the CSV header is printed
    only once a first row is ready, as for a bad --snr-list."""
    shapes = run_train(workdir)
    capsys.readouterr()  # drop train-noise output
    (workdir / "short.cfg").write_text(small_with("window_ms", "16"))
    fits = []
    monkeypatch.setattr(importlib.import_module("harmonmf.enhance"),
                        "fit_free_dictionary", lambda *args: fits.append(args))
    rc = main(["evaluate", str(workdir / "clean.wav"), str(workdir / "noise.wav"),
               str(shapes), "--config", str(workdir / "short.cfg"),
               "--snr-list", "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "frame parameters" in lines[0]
    assert fits == []


@pytest.mark.parametrize("command", ["enhance", "evaluate", "sweep"])
def test_frame_mismatch_fails_before_basis_build(valid_inputs, tmp_path, capsys,
                                                 command):
    """A config of window_ms = 1000 against 32 ms shapes, at the default L
    and p_star, ends enhance, evaluate and sweep in the one frame-parameters
    error line before any harmonic basis is built: no build_harmonic_basis
    call, and a traced peak under 2 MiB.  Building the bases before the
    check traced 62.3 MiB for enhance."""
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("window_ms = 1000\n")
    clean, noise, shapes = (str(valid_inputs / name)
                            for name in ("clean.wav", "noise.wav", "shapes.nshp"))
    out = tmp_path / "out"
    argv = {"enhance": [clean, shapes, str(out)],
            "evaluate": [clean, noise, shapes, "--snr-list", "0"],
            "sweep": [clean, noise, shapes, str(out)]}[command]
    pipeline = importlib.import_module("harmonmf.enhance")
    tracemalloc.start()
    try:
        with mock.patch.object(pipeline, "build_harmonic_basis",
                               wraps=pipeline.build_harmonic_basis) as spy:
            rc = main([command, *argv, "--config", str(cfg)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "frame parameters" in lines[0]
    assert spy.call_count == 0
    assert peak < 2 * 2**20, peak
    assert not out.exists()


def test_evaluate_empty_list(workdir, capsys):
    """An empty --snr-list evaluates nothing, so it is a bad flag: one error
    line, and not even the CSV header is printed."""
    shapes = run_train(workdir)
    capsys.readouterr()  # drop train-noise output
    rc = main(["evaluate", str(workdir / "clean.wav"), str(workdir / "noise.wav"),
               str(shapes), "--config", str(workdir / "small.cfg"),
               "--snr-list", ""])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --snr-list")


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


def basis_builds(argv):
    """Run the CLI from a cold basis memo and return how many times it built
    harmonic bases: each memo miss is one run of the uncached builder."""
    dictionary._harmonic_basis.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return dictionary._harmonic_basis.cache_info().misses


def test_evaluate_builds_bases_once(workdir):
    """lin and dense share the bases; plain and oracle build none."""
    shapes = run_train(workdir)
    assert basis_builds(["evaluate", str(workdir / "clean.wav"),
                         str(workdir / "noise.wav"), str(shapes), "--config",
                         str(workdir / "small.cfg"), "--snr-list", "0",
                         "--free-atoms", "3", "--oracle-atoms", "3"]) == 1


def test_sweep_builds_bases_once_per_L(workdir):
    """The cells run L-major, and the cells of one L share the bases."""
    shapes = run_train(workdir)
    assert basis_builds(["sweep", str(workdir / "clean.wav"),
                         str(workdir / "noise.wav"), str(shapes),
                         str(workdir / "sweep.csv"), "--config",
                         str(workdir / "small.cfg"), "--L-list", "2,3",
                         "--lambda-list", "0.2,0.5"]) == 2


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


def test_config_line_without_equals_is_one_line_error(workdir, capsys):
    cfg = workdir / "noeq.cfg"
    cfg.write_text("L = 3\nm 1\n")
    out = workdir / "out.wav"
    rc = main(["enhance", str(workdir / "clean.wav"), "shapes.nshp", str(out),
               "--config", str(cfg)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: expected 'key = value'\n"
    assert not out.exists()


@pytest.mark.parametrize("key, first, second", [("L", "33", "5"),
                                                 ("noisy_wav", "a.wav", "b.wav")])
def test_duplicate_config_key_is_one_line_error(workdir, capsys, key, first, second):
    """A repeated key, config or path alike, is an error naming its line;
    it never silently keeps one of the values."""
    cfg = workdir / "dup.cfg"
    cfg.write_text(f"{key} = {first}\nseed = 1\n{key} = {second}\n")
    out = workdir / "out.wav"
    rc = main(["enhance", str(workdir / "clean.wav"), "shapes.nshp", str(out),
               "--config", str(cfg)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cfg}:3: duplicate key '{key}'\n"
    assert not out.exists()


@pytest.mark.parametrize("text, lineno, message",
                         [(b"seed = 1\nL = 3\xff\n", 2, "not UTF-8 text"),
                          (b"seed = 1\nL = 3x\n", 2, "bad value for 'L': '3x'")])
def test_config_error_names_its_line(workdir, capsys, text, lineno, message):
    """A byte that is not UTF-8 and a value its key's type refuses are
    errors naming path:lineno, as every other config error is."""
    cfg = workdir / "bad.cfg"
    cfg.write_bytes(text)
    out = workdir / "out.wav"
    rc = main(["enhance", str(workdir / "clean.wav"), "shapes.nshp", str(out),
               "--config", str(cfg)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cfg}:{lineno}: {message}\n"
    assert not out.exists()


def test_config_line_ends(tmp_path):
    """A line ends in "\n", "\r\n" or "\r"; UTF-8 text beyond ASCII is read."""
    cfg = tmp_path / "ends.cfg"
    cfg.write_bytes("# comment é\rL = 7\r\nmode = lin\n".encode())
    assert parse_config_file(cfg) == {"L": 7, "mode": "lin"}


def test_reused_parser_leaks_nothing_between_calls(workdir):
    """main parses with one parser per process; a call's flags, and a usage
    error, leave nothing behind for the next call."""
    assert make_parser() is make_parser()
    shapes = run_train(workdir)

    def enhance(name, *flags):
        out = workdir / name
        assert main(["enhance", str(workdir / "clean.wav"), str(shapes), str(out),
                     "--config", str(workdir / "small.cfg"), *flags]) == 0
        return out.read_bytes()

    dense = enhance("dense.wav")
    enhance("lin.wav", "--mode", "lin")
    assert enhance("after_lin.wav") == dense
    enhance("diag.wav", "--dump-diagnostics")
    assert (workdir / "diag_trace.csv").exists()
    enhance("after_diag.wav")
    assert not list(workdir.glob("after_diag_*"))
    with pytest.raises(SystemExit) as exc:
        main(["enhance", "--mode", "plain"])
    assert exc.value.code == 2
    assert enhance("after_usage_error.wav") == dense


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


@pytest.mark.parametrize("command", ["train-noise", "evaluate", "sweep"])
def test_mode_rejected_outside_enhance(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "out.csv", "--mode", "lin"])  # sweep needs its out_csv
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train-noise", "enhance", "evaluate", "sweep"])
def test_config_mode_read_by_every_command(tmp_path, command):
    """One config file serves every command, so each accepts and validates
    its mode key; only enhance's --mode flag overrides it."""
    cfg = tmp_path / "mode.cfg"
    cfg.write_text("mode = lin\n")
    config, _ = build_config(make_parser().parse_args(
        [command, "out.csv", "--config", str(cfg)]))
    assert config.mode == "lin"
    if command == "enhance":
        config, _ = build_config(make_parser().parse_args(
            [command, "out.csv", "--config", str(cfg), "--mode", "dense"]))
        assert config.mode == "dense"
    cfg.write_text("mode = plain\n")
    with pytest.raises(ValueError, match="mode"):
        build_config(make_parser().parse_args([command, "out.csv",
                                               "--config", str(cfg)]))


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


# case -> (byte offset, struct format and value written into a valid WAV,
# start of the error): a 0 Hz rate, format tag 3 (IEEE float), and a fmt
# chunk size that runs past the end of the file
BAD_WAV_HEADERS = {"rate 0": (24, "<I", 0, "bad sample rate 0 Hz in"),
                   "float": (20, "<H", 3, "unsupported encoding in"),
                   "fmt size past EOF": (16, "<I", 2**32 - 1,
                                         "truncated WAV header in")}


@pytest.mark.parametrize("case", list(BAD_WAV_HEADERS))
def test_bad_wav_header_names_its_file(valid_inputs, tmp_path, capsys, case):
    offset, fmt, value, message = BAD_WAV_HEADERS[case]
    blob = bytearray((valid_inputs / "clean.wav").read_bytes())
    struct.pack_into(fmt, blob, offset, value)
    noisy = tmp_path / "bad.wav"
    noisy.write_bytes(blob)
    out = tmp_path / "out.wav"
    rc = main(["enhance", str(noisy), str(valid_inputs / "shapes.nshp"), str(out),
               "--config", str(valid_inputs / "small.cfg")])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message} {noisy}")
    assert not out.exists()


# file -> (length of its header, (offset, struct format) of each header
# field); a config file is all header and has no binary fields
_WAV_FIELDS = [(4, "<I"), (16, "<I"), (20, "<H"), (22, "<H"), (24, "<I"),
               (28, "<I"), (32, "<H"), (34, "<H"), (40, "<I")]
MUTABLE_INPUTS = {"clean.wav": (44, _WAV_FIELDS), "noise.wav": (44, _WAV_FIELDS),
                  "shapes.nshp": (28, [(4, "<I"), (8, "<I"), (12, "<d"),
                                       (20, "<I"), (24, "<I")]),
                  "small.cfg": (None, [])}


def _field_values(fmt):
    """0, 1 and the largest signed and unsigned values of an integer field's
    width; those as floats, NaN and +-inf for the f64 rate."""
    if fmt == "<d":
        return [0.0, 1.0, 2.0**31 - 1, 2.0**32 - 1, math.nan, math.inf, -math.inf]
    bits = 8 * struct.calcsize(fmt)
    return [0, 1, 2**(bits - 1) - 1, 2**bits - 1]


@st.composite
def mutated_input(draw, valid_inputs):
    """(file name, bytes): one valid input with a whole header field
    rewritten, or with 1 to 4 bytes replaced, each in the header 4 times
    in 5."""
    which = draw(st.sampled_from(list(MUTABLE_INPUTS)), label="file")
    blob = bytearray((valid_inputs / which).read_bytes())
    header_len, fields = MUTABLE_INPUTS[which]
    if fields and draw(st.booleans(), label="whole field"):
        offset, fmt = draw(st.sampled_from(fields), label="field")
        struct.pack_into(fmt, blob, offset,
                         draw(st.sampled_from(_field_values(fmt)), label="value"))
    else:
        for _ in range(draw(st.integers(1, 4), label="bytes")):
            end = (header_len or len(blob)) if draw(st.integers(0, 4)) else len(blob)
            blob[draw(st.integers(0, end - 1))] = draw(st.integers(0, 255))
    return which, bytes(blob)


# eight times the profile's count, 200 by default, about 3 s: the first
# hundred examples are the simplest, and too few of them reach the header
@settings(max_examples=8 * settings.default.max_examples)
@given(data=st.data())
def test_generated_malformed_input_is_one_line_error(valid_inputs, data):
    """Every command, given a mutated WAV, .nshp or config file, exits 0, or
    exits 1 with one error: line, no output file, no solve started and no
    harmonic basis built: input errors are found before any costly work."""
    which, blob = data.draw(mutated_input(valid_inputs))
    pipeline = importlib.import_module("harmonmf.enhance")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = {name: str(valid_inputs / name) for name in MUTABLE_INPUTS}
        path[which] = str(tmp / which)
        (tmp / which).write_bytes(blob)
        clean, noise, shapes = path["clean.wav"], path["noise.wav"], path["shapes.nshp"]
        runs = [(["train-noise", noise], tmp / "out.nshp", []),
                (["enhance", clean, shapes], tmp / "out.wav", []),
                (["evaluate", clean, noise, shapes], None, ["--snr-list", "0"]),
                (["sweep", clean, noise, shapes], tmp / "out.csv",
                 ["--L-list", "2", "--lambda-list", "0.2"])]
        for argv, out, flags in runs:
            argv += [str(out)] if out else []
            argv += [*flags, "--config", path["small.cfg"]]
            err = io.StringIO()
            with mock.patch.object(nmf, "iterate", wraps=nmf.iterate) as spy, \
                    mock.patch.object(pipeline, "build_harmonic_basis",
                                      wraps=pipeline.build_harmonic_basis) as bases, \
                    contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
            if rc != 0:
                lines = err.getvalue().strip().splitlines()
                assert rc == 1 and len(lines) == 1 and lines[0].startswith("error:"), \
                    (argv[0], rc, lines)
                assert out is None or not out.exists()
                assert spy.call_count == bases.call_count == 0, (argv[0], lines)


# valid in Hz, but 2 pi f / sr rounds to pi, or to 0, at 8 kHz
BAD_BAND = [("f_max", "3999.9999999999995"), ("f_min", "1e-323")]
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
    # above the float32 maximum, 3.4028235e38, in which the solve runs
    ("lambda_s", "1e308"), ("lambda_n", "1e39"), ("alpha", "3.5e38"),
    *BAD_BAND,
]


@pytest.mark.parametrize("command", ["enhance", "train-noise"])
@pytest.mark.parametrize("key, value", BAD_CONFIG,
                         ids=[f"{k}={v:.20}" for k, v in BAD_CONFIG])
def test_bad_config_value_is_one_line_error(valid_inputs, tmp_path, capsys,
                                            command, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(small_with(key, value))
    out = tmp_path / "out"
    inputs = {"enhance": ["clean.wav", "shapes.nshp"], "train-noise": ["noise.wav"]}
    rc = main([command, *(str(valid_inputs / name) for name in inputs[command]),
               str(out), "--config", str(cfg)])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and key in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["enhance", "train-noise"])
def test_two_sample_window_is_one_line_error(valid_inputs, tmp_path, capsys,
                                             command):
    """At 8 kHz, window_ms = 0.25 with overlap = 0.5 gives a 2-sample frame,
    whose symmetric Hann window is [0, 0]; the error names window_ms."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(small_with("window_ms", "0.25") + "overlap = 0.5\n")
    out = tmp_path / "out"
    inputs = {"enhance": ["clean.wav", "shapes.nshp"], "train-noise": ["noise.wav"]}
    rc = main([command, *(str(valid_inputs / name) for name in inputs[command]),
               str(out), "--config", str(cfg)])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: window_ms = 0.25")
    assert not out.exists()


@pytest.mark.parametrize("alpha, lambda_s", [("1e30", "1e30"), ("1e38", "1e38"),
                                             ("3.4e38", "3.4e38")])
def test_huge_dense_weights_enhance(valid_inputs, tmp_path, alpha, lambda_s):
    """alpha and lambda_s both huge, in dense mode, with p_star = 12, so that
    bases of high fundamentals are zero-padded: once the speech gains
    underflow, a padded coefficient's update denominator falls to the floor,
    and the quotient there must not overflow into the coefficients."""
    cfg = tmp_path / "dense.cfg"
    cfg.write_text(small_with("mode", "dense", p_star=12, iterations=5,
                              alpha=alpha, lambda_s=lambda_s))
    out = tmp_path / "out.wav"
    assert main(["enhance", str(valid_inputs / "clean.wav"),
                 str(valid_inputs / "shapes.nshp"), str(out),
                 "--config", str(cfg)]) == 0
    assert np.all(np.isfinite(read_wav(out).samples))


@pytest.mark.parametrize("command", ["enhance", "sweep"])
@pytest.mark.parametrize("key, value", BAD_BAND)
def test_bad_band_named_before_inputs(tmp_path, capsys, command, key, value):
    """A fundamental band that rounds onto 0 or pi rad/sample is reported by
    its config key before any input is read: every input path is missing."""
    cfg = tmp_path / "band.cfg"
    cfg.write_text(small_with(key, value))
    names = {"enhance": ["clean.wav", "shapes.nshp", "out.wav"],
             "sweep": ["clean.wav", "noise.wav", "shapes.nshp", "out.csv"]}[command]
    rc = main([command, *(str(tmp_path / n) for n in names), "--config", str(cfg)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {key} must be")
    assert not (tmp_path / names[-1]).exists()


# Far beyond any address space (8e15 bytes or more per array), so the
# allocation fails at once; never a size a machine could try to allocate.
HUGE_SIZES = ["m", "m_n", "L"]


@pytest.mark.parametrize("key", HUGE_SIZES)
def test_huge_size_is_one_line_error(valid_inputs, tmp_path, capsys, key):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(small_with(key, 10**15))
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
             ("evaluate", "--snr-list", ""),
             ("sweep", "--L-list", "x"),
             ("sweep", "--lambda-list", "0.2,"),
             ("sweep", "--lambda-list", "inf"),
             ("sweep", "--L-list", "2,3,1"),
             ("sweep", "--lambda-list", "0.2,-1"),
             ("evaluate", "--snr-list", "4000"),
             ("evaluate", "--snr-list", "0,-4000"),
             ("sweep", "--input-snr", "-4000"),
             ("sweep", "--input-snr", "-inf"),
             ("sweep", "--input-snr", "nan")]


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


@pytest.mark.parametrize("out", ["missing/out", "directory", "directory/"])
@pytest.mark.parametrize("command", ["train-noise", "enhance", "sweep"])
def test_unwritable_output_reported_before_inputs(tmp_path, capsys, command, out):
    """An output path in a missing directory, or naming a directory, is one
    error line naming that path, before any input is read: every input path
    is missing too."""
    (tmp_path / "directory").mkdir()
    out = str(tmp_path / out)
    inputs = {"train-noise": ["noise.wav"], "enhance": ["noisy.wav", "shapes.nshp"],
              "sweep": ["clean.wav", "noise.wav", "shapes.nshp"]}[command]
    rc = main([command, *(str(tmp_path / n) for n in inputs), out])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and out in lines[0]
    assert [p.name for p in tmp_path.rglob("*")] == ["directory"]


CONFIG_TYPES = {f.name: f.type for f in dataclasses.fields(EnhanceConfig)}
# 0 is a valid weight or seed; a huge seed is valid, a weight above the
# float32 maximum is not, and a huge L, m, m_n, p_star, r or iterations is
# valid but costs memory or time.
ZERO_VALID = {"lambda_s", "lambda_n", "alpha", "seed"}
HUGE_INVALID = {"sr", "window_ms", "overlap", "f_min", "f_max", "lambda_s",
                "lambda_n", "alpha", "mode"}


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
        cfg.write_text(small_with(key, value))
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
