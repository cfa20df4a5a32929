"""Real parallel NOMAD runtimes (threads and processes).

The simulator (:mod:`repro.simulator`) provides the paper's *scaling*
results; this package provides the paper's *protocol* running on actual
concurrent workers:

* :class:`~repro.runtime.threaded.ThreadedNomad` — worker threads passing
  item tokens through :class:`~repro.runtime.mailbox.TokenRings`,
  owner-computes with zero locks on the parameters themselves.  Faithful
  to Algorithm 1's structure; the GIL serializes interpreted numerics, so
  use it for protocol validation rather than speedups.
* :class:`~repro.runtime.multiprocess.MultiprocessNomad` — worker
  *processes* over shared-memory factor matrices and rings, the standard
  CPython workaround for GIL-bound compute.  Demonstrates genuine
  parallel lock-free execution of the NOMAD update rule.

Both are built and run by :class:`~repro.runtime.result.LiveNomad` (as
the cluster engine is) from a required :class:`~repro.config.RunConfig`:
one constructor, one ``run()`` and one
:class:`~repro.runtime.result.RuntimeResult`, with one worker loop,
:func:`~repro.runtime.loop.run_token_loop`.
"""

from .result import RuntimeResult
from .threaded import ThreadedNomad
from .multiprocess import MultiprocessNomad

__all__ = ["RuntimeResult", "ThreadedNomad", "MultiprocessNomad"]
