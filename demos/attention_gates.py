"""Peek inside the attention blocks while a batch flows through.

Runs one synthetic batch through the model in train mode, reads the
channel gate each encoder attention block cached for its backward, and
prints how strongly each stage rescales its channels.  Gates sit in
(0, 1): values near 1 pass a channel through, values near 0 suppress it.
"""

import numpy as np

from nimbus.model import ModelConfig, build_model


def main():
    config = ModelConfig(in_channels=12, out_channels=4,
                         stage_widths=(8, 16, 32, 64, 128),
                         depth_multiplier=1, cbam_reduction=2)
    model = build_model(config, seed=3).to_dtype(np.float64)

    stages = list(model.att)
    x = np.random.default_rng(3).normal(0.0, 1.0, (2, 12, 32, 32)).astype(np.float32)
    x = x.astype(np.float64)
    model.forward(x, train=True)

    print("channel-gate statistics per encoder stage (train-mode forward):")
    for i, cbam in enumerate(stages, start=1):
        s = cbam.channel.gate()
        print(f"  stage {i}: {s.shape[1]:3d} channels  "
              f"min {s.min():.3f}  mean {s.mean():.3f}  max {s.max():.3f}")

    flat = stages[0].channel.gate()[0]
    order = np.argsort(flat)
    print("\nstage-1 channels by gate value (sample 0):")
    print("  most suppressed:", ", ".join(f"ch{j} {flat[j]:.3f}" for j in order[:3]))
    print("  most passed:    ", ", ".join(f"ch{j} {flat[j]:.3f}" for j in order[-3:]))


if __name__ == "__main__":
    main()
