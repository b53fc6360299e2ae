"""The digests and the report of tools/bitcheck.py, on canned and small inputs."""
import importlib.util
from pathlib import Path

import numpy as np

import aavtraj

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bitcheck.py"
_spec = importlib.util.spec_from_file_location("bitcheck", _PATH)
bitcheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitcheck)


def canned():
    rng = np.random.default_rng(0)
    return {"grads": rng.normal(size=(5, 2)), "log": [-3.5, -2.25, -2.0], "steps": (4, None)}


def digests_of(outputs):
    return {name: bitcheck.digest(value) for name, value in outputs.items()}


def test_same_outputs_same_digests():
    assert digests_of(canned()) == digests_of(canned())
    assert bitcheck.moved(digests_of(canned()), digests_of(canned())) == []


def test_last_bit_change_is_reported():
    parent, change = canned(), canned()
    change["grads"][3, 1] = np.nextafter(change["grads"][3, 1], np.inf)
    change["log"][2] = np.nextafter(-2.0, 0.0)
    assert bitcheck.moved(digests_of(parent), digests_of(change)) == ["grads", "log"]


def test_shape_and_dtype_are_part_of_an_array_digest():
    a = np.zeros(4)
    assert len({bitcheck.digest(a), bitcheck.digest(a.reshape(2, 2)), bitcheck.digest(a.astype(np.float32))}) == 3


def test_an_output_on_one_side_only_is_reported():
    parent = digests_of(canned())
    change = {**parent, "extra": bitcheck.digest(1.0)}
    del change["log"]
    assert bitcheck.moved(parent, change) == ["extra", "log"]


def test_sweep_digests_repeat_and_catch_a_nudged_gradient(monkeypatch):
    first = digests_of(bitcheck.sweep_outputs(tapes=2))
    assert digests_of(bitcheck.sweep_outputs(tapes=2)) == first
    real = aavtraj.backward_openloop

    def nudged(traj, scn):
        costates, grads = real(traj, scn)
        grads[0, 0] = np.nextafter(grads[0, 0], np.inf)
        return costates, grads

    monkeypatch.setattr(aavtraj, "backward_openloop", nudged)
    got = bitcheck.moved(first, digests_of(bitcheck.sweep_outputs(tapes=2)))
    tags = [f"{preset}.{tag}" for preset in bitcheck.PRESETS for tag in ("0.k1", "1.k3", "k20", "zero-demand.k4")]
    assert got == sorted(f"{tag}.{kind}open.action_grads" for tag in (*tags, "long.t1500.k4")
                         for kind in ("", "sequence."))


def test_step_loop_digests_repeat_and_catch_a_flipped_mask(monkeypatch):
    first = digests_of(bitcheck.step_loop_outputs())
    assert digests_of(bitcheck.step_loop_outputs()) == first
    real = aavtraj.rollout

    def flipped(*args):
        traj = real(*args)
        traj.active_masks = 1.0 - traj.active_masks
        return traj

    monkeypatch.setattr(aavtraj, "rollout", flipped)
    got = set(bitcheck.moved(first, digests_of(bitcheck.step_loop_outputs())))
    masks = {name for name in first if name.endswith(".active_masks")}
    # every tape's masks, on the step loop and on both array paths of the exact-zero cases
    assert masks <= got and len(masks) == 2 * 2 * len(bitcheck.KS) + 3 * 5


def test_training_digests_hold_when_every_sweep_recomputes_its_forward_pass(monkeypatch):
    from dataclasses import replace

    import aavtraj.adjoint as adjoint

    real, read = adjoint.control_law_pass, []

    def spy(traj, *args):
        du_dx, scratch, pull = real(traj, *args)
        ws = None if traj.recording is None else traj.recording()
        read.append(ws is not None and scratch is ws.scratch)  # the controller's own scratch: its recording
        return du_dx, scratch, pull

    monkeypatch.setattr(adjoint, "control_law_pass", spy)
    first = digests_of(bitcheck.training_outputs())
    assert any(read) and not all(read)  # the underflow run's step-loop tapes recompute
    # a record without its recording always has the pass recomputed
    monkeypatch.setattr(adjoint, "control_law_pass", lambda traj, *args: real(replace(traj, recording=None), *args))
    assert digests_of(bitcheck.training_outputs()) == first


def test_training_digests_catch_a_nudged_gradient(monkeypatch):
    import aavtraj.trainer as trainer

    first = digests_of(bitcheck.training_outputs())
    real = trainer.backward_closedloop

    def nudged(*args, **kwargs):
        bundle = real(*args, **kwargs)
        bundle.param_grad[0] += 1e-3  # the clip and Adam's scaling would absorb a last-bit change
        return bundle

    monkeypatch.setattr(trainer, "backward_closedloop", nudged)
    got = bitcheck.moved(first, digests_of(bitcheck.training_outputs()))
    assert {name for name in first if name.endswith(".params")} <= set(got)
