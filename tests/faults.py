"""Faults shared by the negative controls; each patches one walkqca name through pytest's monkeypatch."""

from walkqca import walk


def reverse_roll(monkeypatch, axis=None):
    """Roll one lattice axis (1 = x, 2 = y in the step's grid), or every axis when None, the wrong way."""
    roll = walk._roll_into
    monkeypatch.setattr(
        walk, "_roll_into", lambda dst, src, shift, ax: roll(dst, src, -shift if axis in (None, ax) else shift, ax)
    )


def shift_phase(monkeypatch, mode, error):
    """Move one momentum mode's eigenphase phi by `error` on both branches, leaving its eigenvectors.

    Every library reader of a label's phase goes through walk.label_phase, so this reaches them all.
    """
    phase_of = walk.label_phase

    def corrupted(spec, label):
        phase = phase_of(spec, label)
        return label.branch * (label.branch * phase + error) if label.mode == mode else phase

    monkeypatch.setattr(walk, "label_phase", corrupted)
