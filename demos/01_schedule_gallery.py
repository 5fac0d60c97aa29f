"""Gallery of the schedules of all four regimes and the phases behind them.

Builds one small table per rate kind through ``ScheduleSpec.build``, prints
the per-phase picture and a corollary's symbols, and shows the growth
constant c that the admissibility condition c < 1/beta^2 cares about.
Run:  python3 demos/01_schedule_gallery.py
"""

import numpy as np

from sgdm_sched import ScheduleSpec, table_to_csv, validate_admissible


def show(name, table, max_rows=8):
    head = ", ".join(f"{x:.4g}" for x in table.lr[:max_rows])
    tail = "" if table.T <= max_rows else f", ... ({table.T} steps)"
    print(f"{name:20s} c={table.growth_constant_c:6.3f}  lr = [{head}{tail}]")
    print(f"{'':20s}          batch = {np.unique(table.batch).tolist()}")


# ---- fixed batch, decaying rate -------------------------------------------
print("== fixed batch size, decaying learning rate ==")
b, n = 16, 80  # K = ceil(80/16) = 5 steps per epoch
for name, kind, p in [("constant", "constant", 1.0), ("diminishing", "diminishing", 1.0),
                      ("cosine (E=3)", "cosine", 1.0), ("polynomial (p=2)", "polynomial", 2.0)]:
    spec = ScheduleSpec("constant-bs", kind, lambda_max=0.1, p=p, batch=b, T=15)
    show(name, spec.build(problem_n=n)[0])

# ---- growing batch ----------------------------------------------------------
print("\n== batch doubling per phase (b0=8, n=64, 2 epochs each) ==")
plan = dict(b0=8, delta=2.0, epochs_per_phase=(2, 2, 2, 2), dataset_size=64)
# every phase here has its own batch, so a phase starts where the batch changes
table, _, symbols = ScheduleSpec("increasing-bs", **plan).build(problem_n=None)
starts = (0, *(np.flatnonzero(np.diff(table.batch)) + 1).tolist(), table.T)
batches = tuple(int(table.batch[t]) for t in starts[:-1])
steps = tuple((b - a) // e for a, b, e in zip(starts, starts[1:], plan["epochs_per_phase"]))
print(f"phases m=0..{symbols['M']}: batches {batches}, steps/epoch {steps}, boundaries {starts}")
growth = dict(gamma=1.5, lambda0=0.02)
specs = {
    "decaying + growth": ScheduleSpec("increasing-bs", "cosine", lambda_max=0.1, **plan),
    "joint growth": ScheduleSpec("joint-growth", **growth, **plan),
    "warm-up constant": ScheduleSpec("warmup", "constant", warmup_phases=1, **growth, **plan),
    "warm-up cosine": ScheduleSpec("warmup", "cosine", warmup_phases=1, **growth, **plan),
}
for name, spec in specs.items():
    table, regime, symbols = spec.build(problem_n=None)
    show(name, table)
print(f"{regime} symbols: M_w = {symbols['M_w']}, T_w = {symbols['T_w']}, T = {symbols['T']}")

# ---- admissibility ----------------------------------------------------------
print("\n== admissible-rate check (L = 1) ==")
joint = specs["joint growth"].build(problem_n=None)[0]
for beta in (0.0, 0.5, 0.8):
    rep = validate_admissible(joint, beta=beta, L=1.0, alg="nshb")
    print(f"beta={beta}: lr_max={rep.lr_max:.4g} vs bound {rep.lr_bound:.4g} "
          f"-> {'admissible' if rep.admissible else 'NOT admissible'}")

print("\nCSV export (first lines):")
print("\n".join(table_to_csv(joint).splitlines()[:4]))
