"""NMD001 negative fixture for the bound token kernel: binding is not a
write, and the burst call sits in the declared dispatch loop."""

__nomad_owner_contexts__ = ("worker",)


def bind(backend, w, h, shard, counts, hyper):
    return backend.bind_tokens(  # resolves pointers; applies nothing
        w, h, *shard.csc(), counts, hyper.alpha, hyper.beta, hyper.lambda_
    )


def worker(backend, w, h, shard, counts, hyper, mailbox):
    kernel = bind(backend, w, h, shard, counts, hyper)
    applied = 0
    for burst in mailbox:
        applied += kernel.process_tokens(burst)
    return applied
