"""Two-user energy efficiency vs. user separation.

A single NOMA pair under the reference desk setup: the near user sits on
the cell axis while the far user moves away, first horizontally (both
2.5 m below the access point), then vertically (constant incidence angle).
Every strategy allocates its minimum QoS-guaranteed powers at 1 bit/s/Hz
per user per link, so energy efficiency is purely a function of geometry.

Things to look for in the output:
  * the optimal allocation dominates everywhere;
  * OMA and GRPA fade steadily as the far user drifts off;
  * NGDPA is the odd one out on the horizontal sweep: nearly-equal gains
    starve the near user (its power ratio tends to 0), so EE first rises
    with separation and peaks at 1.5 m before path loss takes over.

Run:  python demos/two_user_energy_efficiency.py
"""

from dataclasses import replace

from lifi_noma import ScenarioConfig, two_user_sweep

config = ScenarioConfig(num_users=2, trials=1)
strategies = [s.value for s in config.strategies]


def show(points, label):
    print(f"\nEE (bits/J/Hz) vs {label}")
    print(f"{label:>8s} | " + " | ".join(f"{s:>8s}" for s in strategies))
    for point in points:
        cells = {key[0]: cell.mean_ee for key, cell in point.cells.items()}
        print(f"{point.sweep_value:8.2f} | "
              + " | ".join(f"{cells[s]:8.1f}" for s in strategies))
    return points


horizontal = show(two_user_sweep(replace(config, sweep_mode="horizontal")), "r_far [m]")
vertical = show(two_user_sweep(replace(config, sweep_mode="vertical")), "l_far [m]")

best = max(horizontal[2].cells.items(), key=lambda kv: kv[1].mean_ee)
print(f"\nAt 1.5 m separation the best strategy is {best[0][0]} "
      f"with {best[1].mean_ee:.1f} bits/J/Hz.")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the plot")
else:
    fig, axes = plt.subplots(1, 2, figsize=(10, 4), sharey=True)
    for axis, points, xlabel in (
        (axes[0], horizontal, "horizontal separation r_far [m]"),
        (axes[1], vertical, "far-user height l_far [m]"),
    ):
        xs = [p.sweep_value for p in points]
        for strategy in strategies:
            axis.plot(xs, [p.cells[(strategy, "none")].mean_ee for p in points],
                      marker="o", label=strategy.upper())
        axis.set_xlabel(xlabel)
        axis.grid(True, alpha=0.4)
    axes[0].set_ylabel("energy efficiency [bits/J/Hz]")
    axes[0].legend()
    fig.tight_layout()
    fig.savefig("two_user_energy_efficiency.png", dpi=120)
    print("saved two_user_energy_efficiency.png")
