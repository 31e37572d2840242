"""Network applications built on the FlexNet public API.

Every §1.1 use case has a concrete app here: real-time security
(:mod:`ddos`, :mod:`firewall`), dynamic monitoring (:mod:`sketch`,
:mod:`telemetry_app`), live infrastructure customization (:mod:`cc`),
and tenant-style extensions (:mod:`nat`, :mod:`loadbalancer`).
"""

from repro import _lazy_exports

__all__ = [
    "DdosDefender",
    "DefenderConfig",
    "FirewallManager",
    "LoadBalancerManager",
    "NatManager",
    "QueryManager",
    "QuerySpec",
    "RateLimiter",
    "STANDARD_HEADERS",
    "SketchReader",
    "base_infrastructure",
    "count_min_delta",
    "dctcp_delta",
    "firewall_delta",
    "hpcc_delta",
    "int_probe_delta",
    "load_balancer_delta",
    "nat_delta",
    "query_delta",
    "rate_limit_delta",
    "remove_cc_delta",
    "remove_probe_delta",
    "row_map_name",
    "scale_defense_delta",
    "standard_builder",
    "swap_cc_delta",
    "syn_defense_delta",
    "syn_monitor_delta",
]

__getattr__ = _lazy_exports(
    __name__,
    {
        "base": ("base_infrastructure", "standard_builder", "STANDARD_HEADERS"),
        "cc": ("dctcp_delta", "hpcc_delta", "remove_cc_delta", "swap_cc_delta"),
        "ddos": (
            "DdosDefender",
            "DefenderConfig",
            "scale_defense_delta",
            "syn_defense_delta",
            "syn_monitor_delta",
        ),
        "firewall": ("FirewallManager", "firewall_delta"),
        "loadbalancer": ("LoadBalancerManager", "load_balancer_delta"),
        "monitoring": ("QueryManager", "QuerySpec", "query_delta"),
        "nat": ("NatManager", "nat_delta"),
        "ratelimit": ("RateLimiter", "rate_limit_delta"),
        "sketch": ("SketchReader", "count_min_delta", "row_map_name"),
        "telemetry_app": ("int_probe_delta", "remove_probe_delta"),
    },
)
