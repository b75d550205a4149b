"""How much structure survives noise?

Adds Gaussian noise of scale 1 - t to synthetic shape point clouds,
coarse-grains them to different cluster counts, and measures
Gromov-Wasserstein distance back to the clean shapes. At low noise, fine resolution wins; as noise grows,
aggressive coarsening denoises better and the optimal cluster count drops.

Desk-scale version of the full study (scripts/run_studies.sh); ~1 minute.
"""

from ncgn.dataset import generate_shape_dataset
from ncgn.engine import gw_study


def main():
    shapes = generate_shape_dataset(n_train=6, n_test=2, n_points=48,
                                    seed=0).train
    rows, argmin_rows = gw_study(shapes, noise_grid=(0.9, 0.5, 0.1),
                                 cluster_grid=(4, 12, 48), n_shapes=6,
                                 n_seeds=2, iters=30, seed=0)
    print("t (1=clean)  clusters  mean GW")
    for t, c, gw in rows:
        print(f"{t:11.1f}  {c:8d}  {gw:.5f}")
    print("\nbest cluster count per noise level:")
    for t, c in argmin_rows:
        print(f"  t={t:.1f}: {c}")


if __name__ == "__main__":
    main()
