"""What adaptive pairing buys as populations grow and QoS diversifies.

For each population size we run a seeded campaign twice: once with uniform
QoS (everyone wants 1 bit/s/Hz) and once with a diverse set {1, 2, 3, 4}.
The tables report the mean energy efficiency of the optimal allocation
under the three pairing methods, plus the strategy comparison under
adaptive pairing.

Takeaways reproduced here at desk scale:
  * uniform QoS: channel-based and adaptive pairing coincide trial by
    trial, and QoS-based pairing (a random shuffle in disguise) trails;
  * diverse QoS: adaptive pairing beats both single-criterion methods;
  * strategy ranking is optimal > NGDPA > GRPA > OMA throughout.

Run:  python demos/multi_user_pairing_gains.py   (~0.5 s on a 2-vCPU Xeon)
"""

from lifi_noma import ScenarioConfig, run_campaign

TRIALS = 500
SIZES = (8, 16, 24, 32)
PAIRINGS = ("channel", "qos", "adaptive")

for label, qos_set in (("uniform QoS {1}", (1.0,)),
                       ("diverse QoS {1,2,3,4}", (1.0, 2.0, 3.0, 4.0))):
    print(f"\n=== {label}: mean EE of the optimal allocation, {TRIALS} trials ===")
    print("users | " + " | ".join(f"{p:>9s}" for p in PAIRINGS))
    for size in SIZES:
        summary = run_campaign(ScenarioConfig(
            num_users=size, trials=TRIALS, seed=7, qos_set=qos_set,
            pairings=PAIRINGS,
        ))
        row = [summary.cells[("opa", p)].mean_ee for p in PAIRINGS]
        print(f"{size:5d} | " + " | ".join(f"{v:9.2f}" for v in row))

print(f"\n=== strategies under adaptive pairing, diverse QoS, {TRIALS} trials ===")
strategies = ("opa", "ngdpa", "grpa", "oma")
print("users | " + " | ".join(f"{s:>8s}" for s in strategies))
for size in SIZES:
    summary = run_campaign(ScenarioConfig(
        num_users=size, trials=TRIALS, seed=7, qos_set=(1.0, 2.0, 3.0, 4.0),
        pairings=("adaptive",),
    ))
    row = [summary.cells[(s, "adaptive")].mean_ee for s in strategies]
    print(f"{size:5d} | " + " | ".join(f"{v:8.2f}" for v in row))

print("\nMean EE falls with the user count for every method: each extra pair"
      "\nadds users in worse average geometry, and the weakest link sets the"
      "\npower bill.")
