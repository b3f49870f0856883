"""The format-1 form of the states this build writes.

Format 1 wrote a record list as five named lists and a seeded bucketing
generator as its PCG64 state; format 2 packs the rows into one list and
writes the generator as ``[seed, draws]``.  These converters rebuild the
format-1 bytes from a format-2 state, so tests can check that a format-1
snapshot still loads and continues identically.  The generator's state
is reached by drawing ``draws`` times, not by ``advance``, so it is an
oracle for the loader's arithmetic rather than a copy of it.
"""

import numpy as np

from repro.checkpoint import rng_numbers, rng_state


def records_v1(state: dict) -> dict:
    rows = state["rows"]
    n = len(rows) // 5
    return {
        "capacity": state["capacity"],
        "values": rows[:n],
        "significances": rows[n : 2 * n],
        "task_ids": rows[4 * n :],
        "sig_prefix": rows[2 * n : 3 * n],
        "sigval_prefix": rows[3 * n : 4 * n],
    }


def generator_v1(rng):
    if not isinstance(rng, list):
        return rng
    seed, draws = rng
    generator = np.random.default_rng(seed)
    for _ in range(draws):
        generator.random()
    return rng_state(rng_numbers(generator.bit_generator.state))


def algorithm_v1(state: dict) -> dict:
    converted = dict(state)
    if "rng" in converted:
        converted["rng"] = generator_v1(converted["rng"])
    inner = dict(converted["state"])
    if "records" in inner:
        inner["records"] = records_v1(inner["records"])
    converted["state"] = inner
    return converted


def allocator_v1(state: dict) -> dict:
    categories = {
        category: {
            **saved,
            "algorithms": {key: algorithm_v1(algo) for key, algo in saved["algorithms"].items()},
        }
        for category, saved in state["categories"].items()
    }
    return {**state, "categories": categories}
