"""The benchmark's per-layer tracer wraps package functions by module
attribute; a target that no longer resolves, or a layer the CLI no longer
calls, makes a traced run report ``correct: false``."""
import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from conftest import harmonic_signal, white_noise

from harmonmf.cli import main
from harmonmf.dictionary import FREE_FIT_ITERATIONS
from harmonmf.signal_io import write_wav

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.mark.parametrize("module, attr",
                         [(module, attr) for _, module, attr, _ in _tracing().TARGETS])
def test_trace_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_every_traced_layer_is_called(tmp_path):
    """One small train-noise and one enhance request call every layer."""
    tracing = _tracing()
    write_wav(white_noise(seconds=3.0, seed=7), tmp_path / "noise.wav")
    write_wav(harmonic_signal(seconds=1.0), tmp_path / "clean.wav")
    cfg = tmp_path / "small.cfg"
    cfg.write_text("L = 3\nm = 1\np_star = 6\nr = 2\nm_n = 2\niterations = 2\n")
    shapes = tmp_path / "shapes.nshp"
    with tracing.Tracer().request() as spans, \
            contextlib.redirect_stdout(io.StringIO()):
        assert main(["train-noise", str(tmp_path / "noise.wav"), str(shapes),
                     "--config", str(cfg)]) == 0
        assert main(["enhance", str(tmp_path / "clean.wav"), str(shapes),
                     str(tmp_path / "out.wav"), "--config", str(cfg)]) == 0
    uncalled = sorted({name for name, _, _, _ in tracing.TARGETS
                       if spans.get(name, (0, 0, 0))[2] < 1})
    assert uncalled == []


@pytest.mark.parametrize("mode", ["dense", "lin"])
def test_enhance_call_structure(tmp_path, mode):
    """Per iteration the solve refreshes the ratio twice, updates the model
    once after the dictionary step, updates each of the 2 groups once (the
    L stacked harmonic bases, then the noise atoms) and the gains once; the
    L bases are built in one call.  The objective is computed only when
    --dump-diagnostics asks for the trace: then at the start and after
    every iteration, one CSV row each."""
    L, iterations = 3, 3
    write_wav(white_noise(seconds=3.0, seed=7), tmp_path / "noise.wav")
    write_wav(harmonic_signal(seconds=1.0), tmp_path / "clean.wav")
    cfg = tmp_path / "small.cfg"
    cfg.write_text(f"L = {L}\nm = 2\np_star = 6\nr = 2\nm_n = 2\n"
                   f"iterations = {iterations}\n")
    shapes = tmp_path / "shapes.nshp"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train-noise", str(tmp_path / "noise.wav"), str(shapes),
                     "--config", str(cfg)]) == 0
    for diagnostics, points in ((False, 0), (True, iterations + 1)):
        out = tmp_path / f"out_{diagnostics}.wav"
        with contextlib.redirect_stdout(io.StringIO()), \
                _tracing().Tracer().request() as spans:
            assert main(["enhance", str(tmp_path / "clean.wav"), str(shapes),
                         str(out), "--config", str(cfg), "--mode", mode]
                        + ["--dump-diagnostics"] * diagnostics) == 0
        calls = {name: spans.get(name, (0, 0, 0))[2] for name in
                 ("kernels.refresh_ratio", "kernels.rank1_add",
                  "nmf.atom_update", "nmf.update_gains", "nmf.solve",
                  "kernels.kl_divergence_floored",
                  "dictionary.build_harmonic_basis")}
        assert calls == {"kernels.refresh_ratio": 2 * iterations,
                         "kernels.rank1_add": iterations,
                         "nmf.atom_update": 2 * iterations,
                         "nmf.update_gains": iterations,
                         "nmf.solve": 1,
                         "kernels.kl_divergence_floored": points,
                         "dictionary.build_harmonic_basis": 1}
        trace_csv = tmp_path / f"out_{diagnostics}_trace.csv"
        assert trace_csv.exists() == diagnostics
        if diagnostics:  # a header, then one row per point
            assert len(trace_csv.read_text().splitlines()) == 1 + points


def test_train_noise_call_structure(tmp_path):
    """The shape fit updates its one free group, the model and the gains once
    in each of its FREE_FIT_ITERATIONS iterations; the gains-only refit
    adds one gain update, and no model update, per iteration."""
    iterations = 2
    write_wav(white_noise(seconds=3.0, seed=7), tmp_path / "noise.wav")
    cfg = tmp_path / "small.cfg"
    cfg.write_text(f"r = 2\niterations = {iterations}\n")
    with contextlib.redirect_stdout(io.StringIO()), \
            _tracing().Tracer().request() as spans:
        assert main(["train-noise", str(tmp_path / "noise.wav"),
                     str(tmp_path / "shapes.nshp"), "--config", str(cfg)]) == 0
    calls = {name: spans.get(name, (0, 0, 0))[2] for name in
             ("kernels.refresh_ratio", "kernels.rank1_add", "nmf.atom_update",
              "nmf.update_gains")}
    fit = FREE_FIT_ITERATIONS
    assert fit == 100
    assert calls == {"kernels.refresh_ratio": 2 * fit + iterations,
                     "kernels.rank1_add": fit,
                     "nmf.atom_update": fit,
                     "nmf.update_gains": fit + iterations}


def test_evaluate_computes_final_points_only(tmp_path):
    """evaluate reads only the denoised signals, so none of its five solves
    (lin, dense, plain, the oracle's dictionary fit and the oracle) computes
    the objective."""
    write_wav(white_noise(seconds=3.0, seed=7), tmp_path / "noise.wav")
    write_wav(harmonic_signal(seconds=1.0), tmp_path / "clean.wav")
    cfg = tmp_path / "small.cfg"
    cfg.write_text("L = 3\nm = 1\np_star = 6\nr = 2\nm_n = 2\niterations = 5\n")
    shapes = tmp_path / "shapes.nshp"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train-noise", str(tmp_path / "noise.wav"), str(shapes),
                     "--config", str(cfg)]) == 0
    with contextlib.redirect_stdout(io.StringIO()), \
            _tracing().Tracer().request() as spans:
        assert main(["evaluate", str(tmp_path / "clean.wav"),
                     str(tmp_path / "noise.wav"), str(shapes), "--config",
                     str(cfg), "--snr-list", "0", "--free-atoms", "3",
                     "--oracle-atoms", "3"]) == 0
    assert spans["nmf.solve"][2] == 5
    assert spans.get("kernels.kl_divergence_floored", (0, 0, 0))[2] == 0


def test_train_noise_computes_one_kl(tmp_path):
    """train-noise's two solves (the fit and the gains-only refit) compute no
    objective; the printed KL is the one divergence of the request."""
    write_wav(white_noise(seconds=3.0, seed=7), tmp_path / "noise.wav")
    cfg = tmp_path / "small.cfg"
    cfg.write_text("r = 2\niterations = 2\n")
    with contextlib.redirect_stdout(io.StringIO()), \
            _tracing().Tracer().request() as spans:
        assert main(["train-noise", str(tmp_path / "noise.wav"),
                     str(tmp_path / "shapes.nshp"), "--config", str(cfg)]) == 0
    assert spans["nmf.solve"][2] == 2
    assert spans["kernels.kl_divergence_floored"][2] == 1
