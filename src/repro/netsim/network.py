"""Campus address space: internal subnets, external pools, NAT."""

from __future__ import annotations

import ipaddress
import random
import re

#: University-owned prefixes (internal). The health system has its own
#: prefix, mirroring the paper's distinct 'University Health' servers.
INTERNAL_PREFIXES = (
    ipaddress.ip_network("10.16.0.0/16"),   # general campus
    ipaddress.ip_network("10.32.0.0/16"),   # health system
    ipaddress.ip_network("10.48.0.0/16"),   # residential / NAT pools
)

#: External (rest of the Internet) pool used for simulated peers.
EXTERNAL_PREFIX = ipaddress.ip_network("198.18.0.0/15")


class AddressSpace:
    """Deterministic IP assignment plus internal/external predicates."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._internal_counter = 0
        self._external_counter = 0
        self._assigned: dict[str, str] = {}

    def is_internal(self, ip: str) -> bool:
        address = ipaddress.ip_address(ip)
        return any(address in prefix for prefix in INTERNAL_PREFIXES)

    def internal_ip(self, key: str, prefix_index: int = 0) -> str:
        """Stable internal address for a logical entity key."""
        cache_key = f"in:{prefix_index}:{key}"
        if cache_key not in self._assigned:
            self._internal_counter += 1
            prefix = INTERNAL_PREFIXES[prefix_index]
            offset = self._internal_counter % (prefix.num_addresses - 2) + 1
            self._assigned[cache_key] = str(prefix.network_address + offset)
        return self._assigned[cache_key]

    def external_ip(self, key: str) -> str:
        """Stable external address for a logical entity key."""
        cache_key = f"ex:{key}"
        if cache_key not in self._assigned:
            self._external_counter += 1
            offset = self._external_counter % (EXTERNAL_PREFIX.num_addresses - 2) + 1
            self._assigned[cache_key] = str(EXTERNAL_PREFIX.network_address + offset)
        return self._assigned[cache_key]

    def ephemeral_port(self) -> int:
        return self._rng.randint(32768, 60999)


#: One dotted-quad octet exactly as `ipaddress` accepts it: ASCII digits,
#: at most 255, no leading zero.
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4_FULLMATCH = re.compile(rf"((?:{_OCTET}\.){{3}}){_OCTET}").fullmatch


def subnet24(ip: str) -> str:
    """The /24 prefix of an address (Table 6's sharing granularity).

    A dotted quad `ipaddress` would accept is cut at its last dot;
    anything else (IPv6, malformed text) takes the `ipaddress` path, so
    results and `ValueError`s are the stdlib's.
    """
    quad = _IPV4_FULLMATCH(ip)
    if quad is not None:
        return f"{quad[1]}0/24"
    address = ipaddress.ip_address(ip)
    if address.version == 4:
        network = ipaddress.ip_network(f"{ip}/24", strict=False)
        return str(network)
    network = ipaddress.ip_network(f"{ip}/56", strict=False)
    return str(network)
