#!/usr/bin/env python3
"""Run the splitting-tower simulation on the Klein four-group configuration.

The base setup is the augmentation-kernel module with one place per
involution.  A nonzero degree-zero class killed by n is pushed up the tower
until the pigeonhole level where two consecutive place-counts agree; the
report certifies that the class dies there and bounds the splitting degree.
"""

import argparse

from tatekit.gmodule import generated_subgroup, klein_four
from tatekit.gmodule import augmentation_kernel_module
from tatekit.sha import GlobalData, PlaceDatum
from tatekit.tower import default_tower_config, simulate_splitting_tower


def klein_data():
    g = klein_four()
    places = tuple(
        PlaceDatum(f"v{i}", generated_subgroup(g, [i])) for i in (1, 2, 3)
    )
    return GlobalData(g, augmentation_kernel_module(g), places)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2, help="exponent killing the class")
    ap.add_argument(
        "--alpha", type=int, nargs="+", default=[1], help="starting class, in coordinates on the generators sha1 prints"
    )
    args = ap.parse_args()

    cfg = default_tower_config(klein_data(), args.n)
    rep = simulate_splitting_tower(cfg, tuple(args.alpha))

    print(f"group order {rep.theta_order}, n = {rep.n}, tower length {rep.tower_length}")
    print(f"pigeonhole level s = {rep.chosen_s}")
    print(f"place counts per level: {rep.cardinality_sequence}")
    print(f"underlying set sizes:   {rep.set_sizes}")
    print(
        f"effective group order {rep.effective_group_order},"
        f" exponent {rep.effective_exponent}"
    )
    for name, vec in rep.alpha_trace:
        print(f"  {name}: {vec}")
    print(f"transfer vanished: {rep.transfer_vanished}")
    print(f"action images coincide: {rep.action_images_coincide}")
    b, e = rep.splitting_degree
    print(f"splitting degree divides {b}^{e}")
    bb, be = rep.bound
    print(f"a priori bound {bb}^{be}")


if __name__ == "__main__":
    main()
