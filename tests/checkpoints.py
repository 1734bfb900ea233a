"""Checkpoint files for the loader and CLI tests: a small actor for the
state, the entries of its checkpoint with any of them edited, and one
malformed file for each refusal of ``load_checkpoint``: an archive of
entries, or raw bytes that make no archive or a damaged one."""

import io
import json

import numpy as np

from sodfeeder.env import N_ACTIONS, STATE_DIM, scenario_fingerprint
from sodfeeder.nets import MLP
from sodfeeder.ppo import CHECKPOINT_VERSION
from sodfeeder.scenario import PPOConfig, Scenario


def state_actor(seed=0):
    """An actor from the state's inputs to the actions, 8 units wide."""
    return MLP([STATE_DIM, 8, 8, N_ACTIONS], np.random.default_rng(seed),
               out_gain=0.01)


def layer_params(net):
    """The views W[0], b[0], W[1], b[1], ... of ``net``, in ``flat``
    order."""
    return [p for wb in zip(net.W, net.b) for p in wb]


def checkpoint_entries(meta_edits=(), **arrays):
    """The entries of a good checkpoint of ``state_actor()``, with
    ``meta_edits`` (key, value) set in its meta, a key whose value is
    ``...`` dropped, and then ``arrays`` set, an array of None dropped."""
    actor = state_actor()
    meta = {"layout_version": CHECKPOINT_VERSION, "sizes": actor.sizes,
            "scenario": scenario_fingerprint(Scenario())}
    for key, value in meta_edits:
        meta[key] = value
    entries = {"meta": json.dumps({k: v for k, v in meta.items()
                                   if v is not ...}), "actor": actor.flat}
    entries.update(arrays)
    return {k: v for k, v in entries.items() if v is not None}


def _nonfinite_at(index, value):
    """``state_actor()``'s parameters with ``value`` at ``index``."""
    flat = state_actor().flat.copy()
    flat[index] = value
    return flat


def _old_format():
    """The entries of a checkpoint in the format before the actor-only one:
    both nets, layer by layer, and their sizes and the PPO config in
    ``meta``."""
    actor = state_actor()
    critic = MLP([STATE_DIM, 8, 8, 1], np.random.default_rng(1))
    layers = {"%s_%d" % (name, i): p
              for name, net in (("actor", actor), ("critic", critic))
              for i, p in enumerate(layer_params(net))}
    return checkpoint_entries(
        [("sizes", ...), ("actor_sizes", actor.sizes),
         ("critic_sizes", critic.sizes), ("config", vars(PPOConfig()))],
        actor=None, **layers)


# file -> (its entries, the refusal after the file's name)
NOT_A_CHECKPOINT = {
    "no_meta": (checkpoint_entries(meta=None), " has no meta entry"),
    "list_meta": (checkpoint_entries(meta="[1, 2]"),
                  " has a meta entry that is not a JSON object"),
    "text_meta": (checkpoint_entries(meta="{sizes"),
                  " has a meta entry that is not a JSON object"),
    "no_layout": (checkpoint_entries([("layout_version", ...)]),
                  " has layout None, not "),
    "list_scenario": (checkpoint_entries([("scenario", [1])]),
                      " does not match the scenario's state_layout, corridor"),
    "no_scenario": (checkpoint_entries([("scenario", ...)]),
                    " does not match the scenario's state_layout, corridor"),
    "old_format": (_old_format(), " has meta sizes None, not positive ints"),
    "text_sizes": (checkpoint_entries([("sizes", "abc")]),
                   " has meta sizes 'abc', not positive ints"),
    "negative_size": (checkpoint_entries([("sizes", [STATE_DIM, -3,
                                                      N_ACTIONS])]),
                      " has meta sizes [18, -3, 4], not positive ints"),
    "zero_size": (checkpoint_entries([("sizes", [STATE_DIM, 0,
                                                  N_ACTIONS])]),
                  " has meta sizes [18, 0, 4], not positive ints"),
    "float_size": (checkpoint_entries([("sizes", [STATE_DIM, 8.0,
                                                   N_ACTIONS])]),
                   " has meta sizes [18, 8.0, 4], not positive ints"),
    "bool_size": (checkpoint_entries([("sizes", [STATE_DIM, True,
                                                  N_ACTIONS])]),
                  " has meta sizes [18, True, 4], not positive ints"),
    "one_size": (checkpoint_entries([("sizes", [STATE_DIM])]),
                 " has meta sizes [18], not positive ints"),
    "wrong_inputs": (checkpoint_entries([("sizes", [2, 8, 8, N_ACTIONS])]),
                     " has meta sizes [2, 8, 8, 4], not positive ints"),
    "wrong_outputs": (checkpoint_entries([("sizes", [STATE_DIM, 8, 8, 1])]),
                      " has meta sizes [18, 8, 8, 1], not positive ints"),
    "object_meta": (checkpoint_entries(meta=np.array([{}], dtype=object)),
                    " has an entry that is not a readable array"),
    "no_actor": (checkpoint_entries(actor=None), " has no actor entry"),
    "short_actor": (checkpoint_entries(actor=state_actor().flat[:-1]),
                    " has an actor entry that is not the 260 finite "
                    "floats that the sizes [18, 8, 8, 4] give"),
    "layer_actor": (checkpoint_entries(actor=state_actor().W[0]),
                    " has an actor entry that is not the 260 finite"),
    "text_actor": (checkpoint_entries(actor=np.array(["0.5"] * 260)),
                   " has an actor entry that is not the 260 finite"),
    "nan_actor": (checkpoint_entries(actor=_nonfinite_at(7, np.nan)),
                  " has an actor entry that is not the 260 finite"),
    "inf_actor": (checkpoint_entries(actor=_nonfinite_at(-1, -np.inf)),
                  " has an actor entry that is not the 260 finite"),
}


def _npy_bytes():
    """A .npy file of ``state_actor()``'s parameters: an array, not an
    archive."""
    out = io.BytesIO()
    np.save(out, state_actor().flat)
    return out.getvalue()


def _damaged_bytes():
    """A good checkpoint with one bit of its actor entry flipped, which
    fails the entry's CRC."""
    out = io.BytesIO()
    np.savez(out, **checkpoint_entries())
    data = bytearray(out.getvalue())
    data[data.index(b"actor.npy") + 400] ^= 1
    return bytes(data)


NOT_AN_ARCHIVE = " is not an .npz archive"
UNREADABLE = " has an entry that is not a readable array"

# file -> (its bytes, the refusal after the file's name)
RAW_FILES = {
    "empty": (b"", NOT_AN_ARCHIVE),
    "broken_zip": (b"PK\x03\x04" + bytes(range(60)), NOT_AN_ARCHIVE),
    "text": (b"the trained policy is in another file\n", NOT_AN_ARCHIVE),
    "npy": (_npy_bytes(), NOT_AN_ARCHIVE),
    "damaged": (_damaged_bytes(), UNREADABLE),
}


def write_malformed(path, name):
    """Write the file ``name`` of ``NOT_A_CHECKPOINT`` or ``RAW_FILES`` at
    ``path``; returns its refusal, after the file's name."""
    if name in RAW_FILES:
        raw, match = RAW_FILES[name]
        path.write_bytes(raw)
        return match
    entries, match = NOT_A_CHECKPOINT[name]
    np.savez(path, **entries)
    return match
