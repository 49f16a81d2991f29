"""Reader for :func:`walkqca.multiparticle.save_state`'s textual dump.

No command reads a dump back, so the reader lives with the tests that
check the dump round-trips.
"""

import json

import numpy as np

from walkqca.multiparticle import MultiState


def load_state(path) -> MultiState:
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        amps = np.zeros((header["walk_dim"] + 1) ** header["n_factors"], dtype=complex)
        for line in fh:
            idx, re, im = line.split()
            amps[int(idx)] = float(re) + 1j * float(im)
    return MultiState(amps, header["walk_dim"], header["n_factors"])
