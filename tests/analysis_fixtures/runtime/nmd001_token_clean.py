"""NMD001 negative fixture for the bound kernel's burst of one: a
budgeted sweep finishes tokens one at a time inside its declared
context, and reading the kernel's size is not a write."""

__nomad_owner_contexts__ = ("sweep",)


def capacity(kernel):
    return kernel.n_items  # reads nothing of W or H


def sweep(kernels, tour, budget):
    applied = 0
    for item, stop in tour:
        if applied >= budget:
            break
        applied += kernels[stop].process_token(item)
    return applied
