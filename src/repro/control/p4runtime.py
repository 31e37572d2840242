"""Element-level control plane bindings, P4Runtime style (§3.4).

"The P4Runtime standard has a set of control plane API to manage and
interact with P4-capable devices, but they operate at the data plane
element level, e.g., manipulating counters, meters, and table rules."

This module is that level: a per-device client exposing table-entry
CRUD, counter/register reads, and map (register/stateful-table) writes
against a live :class:`~repro.runtime.device.DeviceRuntime`. The
app-level abstractions of :mod:`repro.control.apps_api` translate to
these calls — automatically, as the paper requires.

The wire protocol is modelled as an in-process call with a
control-channel latency budget, which the controller accumulates so
experiments can compare control-plane vs data-plane execution costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ChannelError, ControlPlaneError, StaleEpochError
from repro.lang.ir import ActionCall
from repro.limits import READ_RTT_S, WRITE_RTT_S
from repro.runtime.device import DeviceRuntime
from repro.simulator.tables import MatchSpec, Rule

__all__ = [
    "READ_RTT_S",
    "WRITE_RTT_S",
    "ControlChannel",
    "DeviceGroundTruth",
    "P4RuntimeClient",
    "P4RuntimeHub",
    "P4RuntimeStats",
    "TableEntry",
]


@dataclass
class P4RuntimeStats:
    writes: int = 0
    reads: int = 0
    control_time_s: float = 0.0


class ControlChannel:
    """A lossy/slow controller<->device channel (FlexFault hook).

    Each P4Runtime operation transits the channel once. A
    :class:`~repro.faults.plan.FaultInjector` decides per message
    whether it is dropped or delayed; with a
    :class:`~repro.faults.recovery.RetryPolicy` attached, dropped
    messages are retried with exponential backoff (the time spent is
    charged to the caller's control-time budget). Without a retry
    policy a drop raises :class:`~repro.errors.ChannelError`
    immediately — the no-recovery baseline.
    """

    def __init__(self, injector=None, retry=None):
        self.injector = injector
        self.retry = retry
        self.drops = 0
        self.retries = 0
        self.delays = 0
        self.failures = 0

    def transmit(self, device: str, base_rtt_s: float) -> float:
        """Cost one message exchange; returns the channel time spent.
        Raises :class:`ChannelError` when the message is lost and the
        retry budget (if any) is exhausted."""
        if self.injector is None:
            return base_rtt_s
        attempts = self.retry.max_attempts if self.retry is not None else 1
        spent = 0.0
        for attempt in range(1, attempts + 1):
            dropped, delay = self.injector.channel_outcome(device)
            spent += base_rtt_s + delay
            if delay:
                self.delays += 1
            if not dropped:
                return spent
            self.drops += 1
            if attempt < attempts:
                backoff = self.retry.backoff_s(attempt)
                self.retries += 1
                spent += backoff
        self.failures += 1
        raise ChannelError(
            f"control message to {device!r} lost "
            f"({attempts} attempt{'s' if attempts != 1 else ''})"
        )


@dataclass
class TableEntry:
    """The P4Runtime view of one rule."""

    table: str
    matches: tuple[MatchSpec, ...]
    action: str
    action_args: tuple[int, ...] = ()
    priority: int = 0

    def to_rule(self) -> Rule:
        return Rule(
            matches=self.matches,
            action=ActionCall(action=self.action, args=self.action_args),
            priority=self.priority,
        )


@dataclass(frozen=True)
class DeviceGroundTruth:
    """What a device actually holds, read back over P4Runtime.

    FlexHA's resync sweep reads this after a leader fail-over to diff a
    device's real state against the committed Raft log: a device whose
    ``version`` lags the intended program (a window the deposed leader
    never opened) gets re-driven; a ``stranded`` device gets resolved.
    """

    device: str
    version: int | None
    #: table name -> installed entry count.
    tables: dict[str, int]
    #: map name -> populated entry count.
    maps: dict[str, int]
    #: parser state: header names the active version understands.
    headers: tuple[str, ...]
    in_transition: bool
    stranded: bool
    #: highest fencing epoch the device has admitted.
    fencing_epoch: int

    def to_dict(self) -> dict:
        return {
            "device": self.device,
            "version": self.version,
            "tables": dict(sorted(self.tables.items())),
            "maps": dict(sorted(self.maps.items())),
            "headers": list(self.headers),
            "in_transition": self.in_transition,
            "stranded": self.stranded,
            "fencing_epoch": self.fencing_epoch,
        }


class P4RuntimeClient:
    """Element-level client bound to one device."""

    def __init__(self, device: DeviceRuntime, channel: ControlChannel | None = None):
        self._device = device
        self.stats = P4RuntimeStats()
        #: optional lossy-channel model (FlexFault); None == ideal channel.
        self.channel = channel
        #: FlexHA fencing epoch stamped on every mutation (None == an
        #: unfenced single controller; devices admit unconditionally).
        self.epoch: int | None = None

    @property
    def device_name(self) -> str:
        return self._device.name

    # -- channel accounting ------------------------------------------------

    def _transmit(self, base_rtt_s: float) -> float:
        if self.channel is None:
            return base_rtt_s
        return self.channel.transmit(self._device.name, base_rtt_s)

    def _write(self) -> None:
        """Cost one write round trip (before mutating device state, so a
        lost write leaves the device untouched); then fence: a stale
        epoch is rejected by the device and the mutation never lands."""
        self.stats.control_time_s += self._transmit(WRITE_RTT_S)
        self.stats.writes += 1
        if not self._device.admit_epoch(self.epoch):
            raise StaleEpochError(
                f"device {self._device.name!r} rejected write with stale epoch "
                f"{self.epoch} (device fenced at {self._device.fencing_epoch})"
            )

    def _read(self) -> None:
        self.stats.control_time_s += self._transmit(READ_RTT_S)
        self.stats.reads += 1

    def _instance(self):
        instance = self._device.active_instance
        if instance is None:
            raise ControlPlaneError(f"device {self._device.name!r} has no program")
        return instance

    # -- table entries -----------------------------------------------------

    def insert_entry(self, entry: TableEntry) -> None:
        instance = self._instance()
        if entry.table not in instance.rules:
            raise ControlPlaneError(
                f"device {self._device.name!r} has no table {entry.table!r}"
            )
        self._write()
        instance.rules[entry.table].insert(entry.to_rule())

    def delete_entry(self, entry: TableEntry) -> bool:
        instance = self._instance()
        if entry.table not in instance.rules:
            raise ControlPlaneError(
                f"device {self._device.name!r} has no table {entry.table!r}"
            )
        self._write()
        removed = instance.rules[entry.table].remove(entry.to_rule())
        return removed

    def table_size(self, table: str) -> int:
        instance = self._instance()
        if table not in instance.rules:
            raise ControlPlaneError(f"no table {table!r}")
        self._read()
        return len(instance.rules[table])

    # -- counters ---------------------------------------------------------------

    def read_counters(self, table: str) -> tuple[list[int], int]:
        """(per-rule hit counts, miss count) — P4 direct counters."""
        instance = self._instance()
        if table not in instance.rules:
            raise ControlPlaneError(f"no table {table!r}")
        rules = instance.rules[table]
        self._read()
        return list(rules.hit_counts), rules.miss_count

    # -- meters -------------------------------------------------------------------

    def set_meter(self, table: str, rate_pps: float, burst_packets: float) -> None:
        """Attach (or reconfigure) a rate meter on a table."""
        from repro.simulator.meters import Meter, MeterConfig

        instance = self._instance()
        if table not in instance.rules:
            raise ControlPlaneError(f"no table {table!r}")
        self._write()
        instance.rules[table].meter = Meter(
            MeterConfig(rate_pps=rate_pps, burst_packets=burst_packets)
        )

    def read_meter(self, table: str) -> tuple[int, int]:
        """(green_count, red_count) for a table's meter."""
        instance = self._instance()
        if table not in instance.rules:
            raise ControlPlaneError(f"no table {table!r}")
        meter = instance.rules[table].meter
        self._read()
        if meter is None:
            return (0, 0)
        return (meter.green_count, meter.red_count)

    # -- registers / stateful state -----------------------------------------------

    def read_map(self, map_name: str) -> dict[tuple[int, ...], int]:
        instance = self._instance()
        if map_name not in instance.maps:
            raise ControlPlaneError(f"no map {map_name!r}")
        self._read()
        return dict(instance.maps.state(map_name).items())

    def read_map_entry(self, map_name: str, key: tuple[int, ...]) -> int:
        instance = self._instance()
        if map_name not in instance.maps:
            raise ControlPlaneError(f"no map {map_name!r}")
        self._read()
        return instance.maps.state(map_name).get(key)

    def write_map_entry(self, map_name: str, key: tuple[int, ...], value: int) -> None:
        instance = self._instance()
        if map_name not in instance.maps:
            raise ControlPlaneError(f"no map {map_name!r}")
        self._write()
        instance.maps.state(map_name).put(key, value)

    def write_map_entries(
        self, map_name: str, entries: dict[tuple[int, ...], int]
    ) -> int:
        """One batched WriteRequest: all ``entries`` land in a single
        write round trip (P4Runtime batches updates in one RPC). This is
        FlexCloud's per-device reconfiguration window primitive — the
        coalescer folds a round's admits/evicts for a device into one of
        these, so the control-channel cost scales with *windows*, not
        tenants. A value of 0 deletes the key (maps default to 0, so an
        explicit zero and an absent key are indistinguishable to the
        datapath; deleting keeps occupancy counts honest). Returns the
        number of entries applied. Atomic against channel loss: a
        dropped batch leaves the device untouched.
        """
        instance = self._instance()
        if map_name not in instance.maps:
            raise ControlPlaneError(f"no map {map_name!r}")
        if not entries:
            return 0
        self._write()
        state = instance.maps.state(map_name)
        for key, value in entries.items():
            if value == 0:
                state.delete(key)
            else:
                state.put(key, value)
        return len(entries)

    # -- ground truth (FlexHA resync) ----------------------------------------------

    def read_ground_truth(self) -> DeviceGroundTruth:
        """One read round trip returning the device's actual state —
        program version, table/map occupancy, parser headers, transition
        status — for the new leader's resync diff."""
        self._read()
        device = self._device
        instance = device.active_instance
        if instance is None:
            return DeviceGroundTruth(
                device=device.name,
                version=None,
                tables={},
                maps={},
                headers=(),
                in_transition=device.in_transition,
                stranded=device.stranded,
                fencing_epoch=device.fencing_epoch,
            )
        return DeviceGroundTruth(
            device=device.name,
            version=instance.program.version,
            tables={name: len(rules) for name, rules in instance.rules.items()},
            maps={
                map_def.name: len(dict(instance.maps.state(map_def.name).items()))
                for map_def in instance.program.maps
                if map_def.name in instance.maps
            },
            headers=tuple(header.name for header in instance.program.headers),
            in_transition=device.in_transition,
            stranded=device.stranded,
            fencing_epoch=device.fencing_epoch,
        )


@dataclass
class P4RuntimeHub:
    """Client pool: one binding per device, created on demand."""

    clients: dict[str, P4RuntimeClient] = field(default_factory=dict)
    #: shared channel model applied to all bindings (None == ideal).
    channel: ControlChannel | None = None
    #: FlexHA fencing epoch stamped on every binding (None == unfenced).
    epoch: int | None = None

    def bind(self, device: DeviceRuntime) -> P4RuntimeClient:
        client = self.clients.get(device.name)
        if client is None:
            client = P4RuntimeClient(device, channel=self.channel)
            client.epoch = self.epoch
            self.clients[device.name] = client
        return client

    def set_channel(self, channel: ControlChannel | None) -> None:
        """Install a channel model on every current and future binding."""
        self.channel = channel
        for client in self.clients.values():
            client.channel = channel

    def set_epoch(self, epoch: int | None) -> None:
        """Stamp a fencing epoch (the leader's Raft term) on every
        current and future binding; devices reject older epochs."""
        self.epoch = epoch
        for client in self.clients.values():
            client.epoch = epoch

    def client(self, device_name: str) -> P4RuntimeClient:
        if device_name not in self.clients:
            raise ControlPlaneError(f"no P4Runtime binding for {device_name!r}")
        return self.clients[device_name]

    @property
    def total_control_time_s(self) -> float:
        return sum(c.stats.control_time_s for c in self.clients.values())
