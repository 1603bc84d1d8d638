#!/usr/bin/env python3
"""GA sequencing benchmark against brute-force enumeration.

Builds random small task sets, compares the GA's best cost with the exhaustive
optimum, and reports hit rate, generation-zero vs final fitness and the wall
time of each GA run (the default population and generation count) with its
median.

Usage: python scripts/sequence_benchmark.py [n_tasks] [n_instances]
"""

import itertools
import math
import statistics
import sys
import time

import numpy as np

from autosand import planner as pl


def instance(seed, n_tasks):
    """Cost table of straight moves between random configurations: row 0
    prices home -> task j, row i + 1 prices task i -> task j."""
    rng = np.random.default_rng(seed)
    configs = rng.uniform(-1, 1, (n_tasks + 1, 4))
    w = np.array([1.0, 1.0, 0.3, 0.3])
    table = np.zeros((n_tasks + 1, n_tasks))
    for a in range(n_tasks + 1):
        for j in range(n_tasks):
            if a != j + 1:
                table[a, j] = pl.path_cost(pl.Path([configs[a], configs[j + 1]]), w)
    return table


def main():
    n_tasks = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    n_instances = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    hits = 0
    ga_times = []
    for seed in range(n_instances):
        table = instance(seed, n_tasks)
        start = time.perf_counter()
        result = pl.ga_optimize_sequence(table[0], table[1:], pl.GaParams(seed=seed))
        ga_times.append(time.perf_counter() - start)
        best = min(
            sum([table[0, p[0]]] + [table[a + 1, b] for a, b in zip(p[:-1], p[1:])])
            for p in itertools.permutations(range(n_tasks)))
        hit = abs(result.total_cost - best) < 1e-9
        hits += hit
        print(f"seed {seed}: ga {result.total_cost:.4f} vs optimum "
              f"{best:.4f} ({'hit' if hit else 'MISS'}), first-gen best "
              f"{result.best_history[0]:.4f}, GA {ga_times[-1] * 1e3:.1f} ms")
    print(f"\n{hits}/{n_instances} instances solved to optimality "
          f"({n_tasks} tasks, {math.factorial(n_tasks)} permutations each)")
    print(f"median GA time {statistics.median(ga_times) * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
