"""SHA-256 digests of every flow-LP solve of one benchmark pass.

    python3 tools/lp_digest.py [--workload NAME ...] [--seed 0]

Runs one untimed pass of each named workload of ``benchmarks/workloads.py``
(all four by default) and hashes, in call order, every ``LpResult`` that
``solve_mcfp`` gets from its solve, every ``VerificationReport`` it gets
from ``verify_solution`` and every ``KktReport`` that ``verify_solution``
gets from ``check_kkt``.  Each array is hashed with its dtype,
shape and bytes, and each float by its bits, so two checkouts print the
same digest only if every one of those solves agrees to the last bit.
A change meant to leave the solves alone is checked by running this
in both checkouts and comparing the lines.

Run from anywhere inside a checkout: the library is imported from the
checkout's ``src/`` and the workloads from its ``benchmarks/``, and
neither is changed.  Prints one line per workload (name, the count of
each kind of record, digest) and a last line that digests the whole run.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import struct
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402  (benchmarks/workloads.py)

from relayflow import mcfp  # noqa: E402


def _feed(digest, value) -> None:
    """Add ``value`` to ``digest``, tagged by its kind."""
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        digest.update(f"array {arr.dtype.str} {arr.shape}".encode())
        digest.update(arr.tobytes())
    elif isinstance(value, (float, np.floating)):
        digest.update(b"float" + struct.pack("<d", float(value)))
    elif isinstance(value, (bool, int, np.integer, str)):
        digest.update(f"{type(value).__name__} {value!r}".encode())
    else:
        raise TypeError(f"cannot digest a {type(value).__name__}")


def _feed_record(digest, record) -> None:
    digest.update(type(record).__name__.encode())
    for fld in dataclasses.fields(record):
        digest.update(fld.name.encode())
        _feed(digest, getattr(record, fld.name))


@contextmanager
def _recording(digest, counts):
    """Feed every result of ``mcfp.solve``, ``mcfp.check_kkt`` and
    ``mcfp.verify_solution`` to ``digest`` while active, counting each
    kind in ``counts``."""
    saved = {name: getattr(mcfp, name) for name in counts}

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            _feed_record(digest, out)
            counts[name] += 1
            return out

        return wrapper

    try:
        for name, fn in saved.items():
            setattr(mcfp, name, recorder(name, fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(mcfp, name, fn)


def digest_workload(name: str, seed: int) -> tuple[dict, str]:
    """The count of each kind of record and the hex digest of one pass of
    workload ``name``."""
    digest = hashlib.sha256()
    counts = {"solve": 0, "check_kkt": 0, "verify_solution": 0}
    workload = workloads.build(name, seed)
    with _recording(digest, counts):
        run = workloads.run_timed(workload, 0.0)  # no time budget: one pass
    if run.failed:
        raise SystemExit(f"{name}: {run.failed} failed solves")
    return counts, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.BY_NAME),
                        help="workload to digest; repeat for several (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    for name in args.workload or list(workloads.BY_NAME):
        counts, hexdigest = digest_workload(name, args.seed)
        print(f"{name:18} {counts['solve']:5} LpResult {counts['check_kkt']:5} KktReport "
              f"{counts['verify_solution']:5} VerificationReport {hexdigest}", flush=True)
        total.update(hexdigest.encode())
    print(f"{'all':18} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
