"""NMD001 positive fixture for the bound token kernel.

``KernelBackend.bind_tokens`` returns a kernel whose ``process_tokens``
mutates W and every ``h_j`` of the burst in place; calling it outside a
declared owner context is the same violation as a stray
``process_column`` — also when the bound method has been pulled into a
bare name.
"""

__nomad_owner_contexts__ = ("worker",)


def worker(kernel, burst):
    return kernel.process_tokens(burst)  # owner-guarded: the dispatch loop


def replay(kernel, burst):
    return kernel.process_tokens(burst)  # NMD001: caller holds no token


class Prefetcher:
    def warm(self, process_tokens, burst):
        return process_tokens(burst)  # NMD001: same call, as a bare name
