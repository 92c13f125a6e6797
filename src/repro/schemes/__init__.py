"""Datatype-processing schemes: the baselines the paper evaluates.

The proposed design itself lives in :mod:`repro.core`; this package
holds the scheme interface and every competitor, plus a registry used
by the benchmark harness.  :func:`make_scheme_factory` is the single
instantiation path: it consumes a :class:`~repro.config.SchemeCfg`
and validates every override against the scheme's constructor
signature.
"""

import inspect
from typing import Any, Callable, Dict

from ..config import SchemeCfg
from ..net.topology import RankSite
from ..sim.trace import Trace
from .base import OpHandle, PackingScheme, SchemeCapabilities
from .gpu_async import GPUAsyncScheme
from .gpu_sync import GPUSyncScheme
from .hybrid import CPUGPUHybridScheme
from .mvapich_adaptive import MVAPICHAdaptiveScheme
from .naive import NaiveCopyScheme

__all__ = [
    "PackingScheme",
    "OpHandle",
    "SchemeCapabilities",
    "GPUSyncScheme",
    "GPUAsyncScheme",
    "CPUGPUHybridScheme",
    "MVAPICHAdaptiveScheme",
    "NaiveCopyScheme",
    "SCHEME_REGISTRY",
    "make_scheme_factory",
]


def _spectrum_factory(site: RankSite, trace: Trace) -> PackingScheme:
    return NaiveCopyScheme(site, trace, per_copy_factor=1.0, name="SpectrumMPI")


def _openmpi_factory(site: RankSite, trace: Trace) -> PackingScheme:
    return NaiveCopyScheme(site, trace, per_copy_factor=0.85, name="OpenMPI")


def _proposed_factory(site: RankSite, trace: Trace) -> PackingScheme:
    from ..core.framework import KernelFusionScheme

    return KernelFusionScheme(site, trace)


#: name -> factory(site, trace) for every evaluated scheme.
SCHEME_REGISTRY: Dict[str, Callable[[RankSite, Trace], PackingScheme]] = {
    "GPU-Sync": GPUSyncScheme,
    "GPU-Async": GPUAsyncScheme,
    "CPU-GPU-Hybrid": CPUGPUHybridScheme,
    "MVAPICH2-GDR": MVAPICHAdaptiveScheme,
    "SpectrumMPI": _spectrum_factory,
    "OpenMPI": _openmpi_factory,
    "Proposed": _proposed_factory,
}


#: alias factories take no constructor overrides
_ALIASED = (_spectrum_factory, _openmpi_factory, _proposed_factory)


def _validate_scheme_kwargs(name: str, ctor: Callable, kwargs: Dict[str, Any]) -> None:
    """Reject keyword overrides the scheme's constructor cannot accept.

    Validated eagerly (at factory-build time, not first call), naming
    the bad key and the scheme — the satellite fix for the old silent
    forwarding of unknown kwargs.
    """
    if not kwargs:
        return
    if ctor in _ALIASED:
        raise ValueError(f"overrides not supported for aliased scheme {name!r}")
    params = inspect.signature(ctor).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return
    accepted = {
        pname
        for pname, p in params.items()
        if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
        and pname not in ("site", "trace")
    }
    for key in kwargs:
        if key not in accepted:
            raise ValueError(
                f"unknown option {key!r} for scheme {name!r} "
                f"(accepted: {sorted(accepted)})"
            )


def _fusion_factory(cfg: SchemeCfg) -> Callable[[RankSite, Trace], PackingScheme]:
    from ..core.framework import KernelFusionScheme
    from ..core.fusion_policy import FusionPolicy

    policy = FusionPolicy(**cfg.fusion.policy_kwargs())
    capacity = cfg.fusion.capacity if cfg.fusion.capacity is not None else 256
    options = dict(cfg.options)
    _validate_scheme_kwargs(cfg.name, KernelFusionScheme, options)

    def factory(site: RankSite, trace: Trace) -> PackingScheme:
        return KernelFusionScheme(
            site, trace, policy=policy, capacity=capacity, name=cfg.label, **options
        )

    return factory


def make_scheme_factory(cfg: SchemeCfg) -> Callable[[RankSite, Trace], PackingScheme]:
    """The single scheme-instantiation path: ``factory(site, trace)``.

    A fusion-configured scheme config (any ``fusion`` override or a
    ``label``) builds a :class:`~repro.core.framework.KernelFusionScheme`
    exactly as the benchmark drivers do; everything else resolves
    through :data:`SCHEME_REGISTRY`.  Unknown scheme names raise
    ``KeyError``; unknown constructor overrides raise ``ValueError``
    naming the bad key and the scheme.
    """
    if cfg.fusion_configured:
        return _fusion_factory(cfg)

    if cfg.name not in SCHEME_REGISTRY:
        raise KeyError(
            f"scheme {cfg.name!r} is not in the registry and carries no "
            "fusion config — cannot build its factory"
        )
    base = SCHEME_REGISTRY[cfg.name]
    options = dict(cfg.options)
    _validate_scheme_kwargs(cfg.name, base, options)
    if not options:
        return base

    def factory(site: RankSite, trace: Trace) -> PackingScheme:
        return base(site, trace, **options)

    return factory
