"""Wire-plane lifecycle tests: create/attach, cleanup, leak-freedom.

The multiprocess runtime's correctness tests live in
``test_runtime_cluster.py`` / ``test_runtime_differential.py``; this
file owns the shared-memory plumbing — that segments round-trip bits,
that ``close`` releases and the owner unlinks, and (the load-bearing
part) that abnormal exits — an uncaught exception, a SIGINT mid
``python -m repro run`` — leave nothing behind in ``/dev/shm``.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.distributed.runtime.wire import (
    SEGMENT_PREFIX,
    PlaneSpec,
    WirePlane,
    wire_segment_names,
)
from repro.exceptions import ConfigurationError

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_spec_layout():
    spec = PlaneSpec(session="abc123", num_honest=3, dimension=5)
    assert spec.segment_name == f"{SEGMENT_PREFIX}-abc123"
    # params (5) + wire (15) + clean (15) + losses (3) + wire_bytes (3),
    # float64.
    assert spec.size_bytes == 8 * (5 + 15 + 15 + 3 + 3)


def test_create_validates_shape():
    with pytest.raises(ConfigurationError):
        WirePlane.create(0, 4)
    with pytest.raises(ConfigurationError):
        WirePlane.create(3, 0)


def test_create_attach_roundtrip_bits():
    rng = np.random.default_rng(0)
    with WirePlane.create(3, 4) as owner:
        assert not owner.closed
        assert np.all(owner.wire == 0.0) and np.all(owner.parameters == 0.0)
        values = rng.standard_normal((3, 4))
        owner.wire[:] = values
        owner.parameters[:] = values[0]
        owner.losses[:] = values[:, 0]

        attached = WirePlane.attach(owner.spec)
        try:
            # Exact float64 bits, both directions.
            assert attached.wire.tolist() == values.tolist()
            assert attached.parameters.tolist() == values[0].tolist()
            assert attached.losses.tolist() == values[:, 0].tolist()
            attached.clean[1] = 7.5
            assert owner.clean[1].tolist() == [7.5] * 4
        finally:
            attached.close()
        # A non-owner close never unlinks: the owner can still map it.
        assert owner.spec.segment_name in wire_segment_names()
    assert owner.closed


def test_generated_name_carries_creator_pid():
    with WirePlane.create(2, 3) as plane:
        name = plane.spec.segment_name
        assert name.startswith(f"{SEGMENT_PREFIX}-{os.getpid()}-")
        # POSIX shared-memory names: at most 31 characters with the "/".
        assert len(name) + 1 <= 31
        assert wire_segment_names(pid=os.getpid()) == [name]
        assert wire_segment_names(pid=os.getpid() + 1) == []


def test_close_unlinks_and_is_idempotent():
    plane = WirePlane.create(2, 3)
    name = plane.spec.segment_name
    assert name in wire_segment_names()
    plane.close()
    assert name not in wire_segment_names()
    plane.close()  # idempotent
    assert plane.closed
    with pytest.raises(FileNotFoundError):
        WirePlane.attach(plane.spec)


def test_atexit_backstop_unlinks_on_crash():
    """A process that dies with an open owned plane must not leak it."""
    script = textwrap.dedent(
        """
        import sys
        from repro.distributed.runtime.wire import WirePlane

        plane = WirePlane.create(2, 3)
        print(plane.spec.segment_name, flush=True)
        raise SystemExit(3)  # atexit still runs; no explicit close()
        """
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 3, completed.stderr
    name = completed.stdout.strip()
    assert name.startswith(f"{SEGMENT_PREFIX}-")
    assert name not in wire_segment_names()


def _interrupt_run(tmp_path, poll_seconds: float) -> tuple[int, int]:
    """Start a long multiprocess ``python -m repro run``, SIGINT it
    once its wire segment exists; returns ``(returncode, pid)``.

    The segment is looked for every ``poll_seconds``.
    """
    config = {
        "configs": [
            {
                "name": "sigint-probe",
                "num_steps": 100000,
                "n": 5,
                "f": 0,
                "gar": "average",
                "batch_size": 10,
                "eval_every": 100000,
                "seeds": [1],
                "backend": "multiprocess",
                "num_shards": 2,
            }
        ]
    }
    config_path = tmp_path / "long.json"
    config_path.write_text(json.dumps(config))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", str(config_path)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if wire_segment_names(pid=process.pid):
                break
            if process.poll() is not None:
                pytest.fail(f"run exited early with {process.returncode}")
            time.sleep(poll_seconds)
        else:
            pytest.fail("wire segment never appeared")
        process.send_signal(signal.SIGINT)
        returncode = process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
    return returncode, process.pid


@pytest.mark.slow
def test_sigint_mid_run_leaves_no_segments(tmp_path):
    """``python -m repro run`` killed by SIGINT releases every segment.

    Uses a run long enough that the interrupt lands mid-training, and
    waits for the wire segment to exist before signalling so the
    interrupt exercises the teardown path, not the startup path.  Only
    segments carrying the child's pid are watched, so wire planes other
    processes on the host create and release meanwhile cannot fail it.
    """
    returncode, pid = _interrupt_run(tmp_path, poll_seconds=0.1)
    assert returncode == 130
    assert wire_segment_names(pid=pid) == []


@pytest.mark.slow
def test_sigint_while_creating_the_plane_leaves_no_segment(tmp_path):
    """An interrupt the moment the segment appears — while the plane is
    still being created and registered — releases it too."""
    returncode, pid = _interrupt_run(tmp_path, poll_seconds=0.0005)
    assert returncode == 130
    assert wire_segment_names(pid=pid) == []
