"""The benchmark's workloads.  Plain data, so run.py can read it without
importing numpy before the worker pins the BLAS thread count.

primary is the request kind the closed loop repeats.  Enhance workloads train
noise shapes on their four recordings (white, pink, white, pink) in set-up
through the same CLI, and enhance clip j with shapes j % 4.  The
train-noise workload follows each training with enhancing, in both modes,
its share of `clips` 1 s clips using the shapes just trained.  So every
workload reports every end-to-end metric.  Clip j has noise kind
NOISE_KINDS[j % 2] and input SNR SNRS_DB[j % 3]; an untraced run always
completes one full cycle, so the SNR-gain means cover a fixed input set.
"""
MODES = ("dense", "lin")

WORKLOADS = {
    # 10 s clips (T = 1255 frames): the solve is >= 98 % of a request and every
    # kernel call touches a whole 129 x T matrix, so bytes per frame dominate.
    "enhance-long": {"primary": "enhance", "clip_s": 10.0, "clips": 3,
                     "recordings": 4},
    # 1 s clips (T = 130 frames): per-call Python/numpy dispatch and the
    # dictionary build weigh most.
    "enhance-short": {"primary": "enhance", "clip_s": 1.0, "clips": 24,
                      "recordings": 4},
    # train-noise on 10 s noise: 16 free columns over 100 iterations, then a
    # gains-only refit; the 148-atom constrained loop is not on this path.
    # Six recordings, not four: dense-mode SNR gain depends on which shapes a
    # training happened to find, and the mean over more trainings is steadier.
    "train-noise": {"primary": "train", "clip_s": 1.0, "clips": 12,
                    "recordings": 6},
}
