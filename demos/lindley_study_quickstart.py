"""
A miniature run of the density sweep, showing the complexity bias.

With diffuse parameter priors, Bayesian model comparison drifts toward
simpler structures (Lindley's paradox): sparse truths get overfitted and
dense truths underfitted.  A prior informed about the generating
coefficients removes the drift.  The full-size experiment lives in
configs/lindley_n8.json and configs/lindley_n10.json; this one is shrunken
to finish in about a minute.
"""

import numpy as np

from abn_forge import StudyConfig, run_study


def main():
    config = StudyConfig(
        study="lindley",
        n_nodes=6,
        densities=(0.1, 0.5, 0.9),
        sample_sizes=(1000,),
        replicates=10,
        priors=("wi", "st", "si"),
        master_seed=2,
    )
    print(f"running {config.replicates} replicates per density {config.densities} ...")
    rows = run_study(config)

    print("\nmean fitted/true edge-count ratio (1.0 = matched complexity)")
    header = "prior  " + "".join(f"  d={d:<6}" for d in config.densities)
    print(header)
    print("-" * len(header))
    for prior in config.priors:
        cells = []
        for density in config.densities:
            values = [
                r.normalized_parents
                for r in rows
                if r.prior_name == prior and r.density == density and not r.note
            ]
            cells.append(float(np.mean(values)) if values else float("nan"))
        print(f"{prior:<6}" + "".join(f"{c:9.3f}" for c in cells))

    skipped = sum(1 for r in rows if r.note == "empty_truth")
    if skipped:
        print(f"\n({skipped} rows drew an empty truth at the sparse end"
              " and are excluded.)")
    print("\nThe dense-end underfit is already unmistakable at this scale,")
    print("and the sparse-end inflation shows first for the t prior; both")
    print("effects widen at the shipped n=8 and n=10 scales, while the")
    print("informed prior hugs 1 across the whole sweep.")


if __name__ == "__main__":
    main()
