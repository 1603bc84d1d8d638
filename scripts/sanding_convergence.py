#!/usr/bin/env python3
"""Convergence study of the adaptive impedance controller.

Runs the headline single-contact regulation scenario across robust-gain and
adaptation settings, writes one CSV per run, and prints a summary table.

Usage: python scripts/sanding_convergence.py [out_dir]
"""

import dataclasses
import sys
from pathlib import Path

from autosand import harness
from autosand.config import PipelineConfig


def run_variant(name, config, out_dir, robust_gain=None, learn_rate=None,
                stiffness_scale=1.0, duration=8.0):
    # a stiffer belt scales the law that nominal_setup builds its contact from
    contact = dataclasses.replace(config.contact,
                                  stiffness=config.contact.stiffness * stiffness_scale,
                                  damping=config.contact.damping * stiffness_scale)
    gains = {key: value for key, value in (("robust_gain", robust_gain),
                                           ("learn_rate", learn_rate)) if value is not None}
    control = dataclasses.replace(config.control, force_noise=0.0, **gains)
    sim = dataclasses.replace(config.sim, sanding_duration=duration)
    config = dataclasses.replace(config, contact=contact, control=control, sim=sim)
    result = harness.simulate_sanding(harness.nominal_setup(config))
    harness.write_csv(out_dir / f"{name}.csv", harness.LOG_COLUMNS, result.log)
    return result


def main():
    out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "runs/convergence")
    out_dir.mkdir(parents=True, exist_ok=True)
    config = PipelineConfig()

    variants = [
        ("nominal", {}),
        ("hot_adaptation", {"learn_rate": 60.0}),
        ("cold_adaptation", {"learn_rate": 5.0}),
        ("no_adaptation", {"learn_rate": 0.0}),
        ("stiff_belt_x10", {"stiffness_scale": 10.0}),
    ]
    print(f"{'variant':<18} {'steady F [N]':>13} {'|zq| tail':>10} "
          f"{'settle [s]':>10} {'descent':>8}")
    for name, kwargs in variants:
        result = run_variant(name, config, out_dir, **kwargs)
        settle = result.monitor.settle_time
        print(f"{name:<18} {result.steady_force:>13.4f} "
              f"{result.mean_zq_tail:>10.2e} "
              f"{settle if settle is not None else float('nan'):>10.2f} "
              f"{'ok' if result.monitor.passed else 'VIOLATED':>8}")
    print(f"\nper-step logs in {out_dir}/")


if __name__ == "__main__":
    main()
