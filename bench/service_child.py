"""The served side of the serve workloads: a ``RecommendationService``
in its own process, so the load generator and the service (with its
trainer thread) never share one GIL.

The parent generates the inputs and sends them over; this process only
receives them.  Protocol on the pipe: child sends ``("ready", port)`` or
``("error", text)``; parent sends ``"stop"``; child answers
``("stopped", trainer_error)`` and exits.
"""

from __future__ import annotations

import traceback

__all__ = ["serve"]


def serve(pipe, warmup_triplets, hyper_fields: dict, config_fields: dict) -> None:
    """Child-process entry (module-level so ``spawn`` can import it)."""
    from repro import HyperParams, RecommendationService, ServiceConfig
    from repro.datasets.ratings import RatingMatrix

    service = None
    try:
        warmup = RatingMatrix(*warmup_triplets)
        service = RecommendationService(
            warmup, HyperParams(**hyper_fields), ServiceConfig(**config_fields)
        ).start()
        pipe.send(("ready", service.port))
        pipe.recv()  # "stop" (or EOF when the parent died)
    except EOFError:
        pass
    except Exception:
        pipe.send(("error", traceback.format_exc()))
    finally:
        if service is not None:
            service.stop()
            try:
                pipe.send(("stopped", service.trainer_error))
            except OSError:
                pass
        pipe.close()
