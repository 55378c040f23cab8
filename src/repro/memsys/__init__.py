"""Memory-system substrates: banked cache, i-cache, and the ARB."""

from repro.memsys.arb import AddressResolutionBuffer, Violation
from repro.memsys.cache import BankedCache, CacheConfig
from repro.memsys.icache import ICacheConfig, InstructionCache

__all__ = [
    "AddressResolutionBuffer",
    "BankedCache",
    "CacheConfig",
    "ICacheConfig",
    "InstructionCache",
    "Violation",
]
