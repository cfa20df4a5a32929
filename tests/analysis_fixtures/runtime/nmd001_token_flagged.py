"""NMD001 positive fixture for the bound kernel's burst of one.

``TokenKernel.process_token(j)`` is ``process_tokens([j])``: it mutates W
and ``h_j`` in place, so finishing a single token outside a declared
owner context is the same violation as a stray burst.
"""

__nomad_owner_contexts__ = ("finish",)


def finish(kernel, token):
    return kernel.process_token(token.item)  # owner-guarded: holds the token


def peek(kernel, item):
    return kernel.process_token(item)  # NMD001: caller holds no token
