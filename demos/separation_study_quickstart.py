"""
A miniature run of the sample-size study, in process.

The real experiment (configs/separation_n5.json, or the n=10 variant at the
scale of the original figures) sweeps N over decades with dense truths whose
edge coefficients sit at 5 on the logit scale, so small samples separate
constantly.  This quickstart shrinks everything to run in well under a
minute and prints the median TPR/FPR table instead of plotting it.
"""

import numpy as np

from abn_forge import StudyConfig, run_study


def median_table(rows, prior, sizes, metric):
    cells = []
    for n_obs in sizes:
        values = [
            getattr(r, metric)
            for r in rows
            if r.prior_name == prior and r.n_obs == n_obs and not r.note
        ]
        cells.append(float(np.median(values)))
    return cells


def main():
    config = StudyConfig(
        study="separation",
        n_nodes=4,
        densities=(0.8,),
        sample_sizes=(100, 400, 1600),
        replicates=8,
        priors=("wi", "st"),
        master_seed=4,
    )
    print(f"running {config.replicates} replicates at N in {config.sample_sizes} ...")
    rows = run_study(config)

    header = "prior  metric " + "".join(f"{n:>8}" for n in config.sample_sizes)
    print("\n" + header)
    print("-" * len(header))
    for prior in config.priors:
        for metric in ("tpr", "fpr"):
            cells = median_table(rows, prior, config.sample_sizes, metric)
            print(f"{prior:<6} {metric:<6}" + "".join(f"{c:8.3f}" for c in cells))

    print("\nRecovery sharpens as N grows for both priors; at the smallest N")
    print("the heavy-tailed prior tends to keep more true edges because the")
    print("separated fits it tames still carry usable scores.")


if __name__ == "__main__":
    main()
