"""User outage probability vs. the transmit-power caps.

Outage is counted per link: the access point sheds its highest-power
downlink users until the remainder fits under the total-power cap, while
uplink users drop out individually when their own minimum power exceeds
the per-device cap. The per-user minimum powers are computed once per
trial; every cap on the grid re-scores the same powers.

Desk-scale reproduction of the qualitative picture:
  * downlink: the optimal allocation keeps the most users connected at any
    cap, OMA the fewest, and GRPA beats NGDPA (its inflated powers sit on
    the far user, which gets shed anyway);
  * uplink: GRPA is the worst offender, OMA barely better, and NGDPA only
    approaches the optimum once QoS diversity is low.

Run:  python demos/outage_probability.py   (~0.4 s on a 2-vCPU Xeon)
"""

from dataclasses import replace

from lifi_noma import ScenarioConfig, run_uop_sweep

BASE = ScenarioConfig(
    num_users=16, trials=300, seed=11, qos_set=(1.0, 2.0, 3.0, 4.0),
    pairings=("adaptive",),
)
STRATEGIES = ("opa", "ngdpa", "grpa", "oma")

sweeps = {
    "downlink, total-power cap": replace(
        BASE, uop_sweep_link="dl",
        uop_sweep_grid=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
    ),
    "uplink, per-device cap": replace(
        BASE, uop_sweep_link="ul",
        uop_sweep_grid=(0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0),
    ),
}

curves = {}
for label, config in sweeps.items():
    points = run_uop_sweep(config)
    print(f"\n=== mean UOP: {label} ===")
    print("  cap | " + " | ".join(f"{s:>7s}" for s in STRATEGIES))
    for point in points:
        values = {
            key[0]: (cell.mean_uop_dl if config.uop_sweep_link == "dl"
                     else cell.mean_uop_ul)
            for key, cell in point.cells.items()
        }
        print(f"{point.sweep_value:5.2f} | "
              + " | ".join(f"{values[s]:7.4f}" for s in STRATEGIES))
    curves[label] = points

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
else:
    fig, axes = plt.subplots(1, 2, figsize=(10, 4))
    for axis, (label, points) in zip(axes, curves.items()):
        link = "dl" if "downlink" in label else "ul"
        xs = [p.sweep_value for p in points]
        for strategy in STRATEGIES:
            ys = [
                (p.cells[(strategy, "adaptive")].mean_uop_dl if link == "dl"
                 else p.cells[(strategy, "adaptive")].mean_uop_ul)
                for p in points
            ]
            axis.semilogx(xs, ys, marker="o", label=strategy.upper())
        axis.set_xlabel(f"{label} [relative power]")
        axis.set_ylabel("mean user outage probability")
        axis.grid(True, which="both", alpha=0.4)
        axis.legend()
    fig.tight_layout()
    fig.savefig("outage_probability.png", dpi=120)
    print("\nsaved outage_probability.png")
