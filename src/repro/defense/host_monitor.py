"""Host-based CPU monitoring vs externalised power metering (§VI).

The paper's argument, implemented: a host-resident CPU-usage anomaly
detector is defeated by malware that controls the host — idle mining
keeps the load away from interactive sessions, monitor-aware miners
throttle while Task Manager runs, and rootkit-grade samples tamper with
the readings outright.  An *external* observer (a smart-meter style
power monitor) sees the true draw and is immune to all three.
"""

import enum
from dataclasses import dataclass
from typing import List


__all__ = [
    "CpuAnomalyMonitor",
    "DetectionOutcome",
    "HostState",
    "MinerTrick",
    "PowerMeterMonitor",
    "typical_day_trace",
]


class MinerTrick(enum.Enum):
    """User/monitor-evasion behaviours from §I and §II."""

    NONE = "none"
    IDLE_MINING = "idle_mining"          # mine only when the user is away
    MONITOR_AWARE = "monitor_aware"      # throttle while Task Manager runs
    ROOTKIT = "rootkit"                  # falsify CPU readings


@dataclass
class HostState:
    """One sampled instant of an infected host."""

    user_active: bool
    task_manager_open: bool
    mining_load: float      # CPU fraction the miner would like to burn
    baseline_load: float = 0.07

    def actual_cpu(self, trick: MinerTrick) -> float:
        """CPU the miner really consumes at this instant."""
        load = self.mining_load
        if trick is MinerTrick.IDLE_MINING and self.user_active:
            load = 0.0
        if trick is MinerTrick.MONITOR_AWARE and self.task_manager_open:
            load = 0.0
        return min(1.0, self.baseline_load + load)

    def reported_cpu(self, trick: MinerTrick) -> float:
        """CPU a host-resident monitor *observes* at this instant."""
        actual = self.actual_cpu(trick)
        if trick is MinerTrick.ROOTKIT:
            return self.baseline_load    # readings are falsified
        return actual

    def power_draw_watts(self, trick: MinerTrick, idle_w: float = 45.0,
                         full_w: float = 180.0) -> float:
        """Wall-socket draw: physics cannot be rootkitted."""
        return idle_w + (full_w - idle_w) * self.actual_cpu(trick)


@dataclass
class DetectionOutcome:
    """What a monitor concluded over a trace."""

    samples: int
    alerts: int
    detected: bool


class CpuAnomalyMonitor:
    """Host-resident detector: alerts on sustained high reported CPU."""

    def __init__(self, threshold: float = 0.6,
                 min_alert_fraction: float = 0.3) -> None:
        self.threshold = threshold
        self.min_alert_fraction = min_alert_fraction

    def evaluate(self, trace: List[HostState],
                 trick: MinerTrick) -> DetectionOutcome:
        """Scan a trace; detected when enough samples exceed threshold."""
        alerts = sum(1 for state in trace
                     if state.reported_cpu(trick) > self.threshold)
        detected = (len(trace) > 0
                    and alerts / len(trace) >= self.min_alert_fraction)
        return DetectionOutcome(len(trace), alerts, detected)


class PowerMeterMonitor:
    """External detector on the power line (smart-meter deployment).

    Compares measured draw against the draw *predicted* from the host's
    reported CPU; a sustained gap means something is burning cycles the
    host is not admitting to.
    """

    def __init__(self, gap_watts: float = 25.0,
                 min_alert_fraction: float = 0.3) -> None:
        self.gap_watts = gap_watts
        self.min_alert_fraction = min_alert_fraction

    def evaluate(self, trace: List[HostState],
                 trick: MinerTrick) -> DetectionOutcome:
        """Compare measured draw against CPU-predicted draw over a trace."""
        alerts = 0
        for state in trace:
            measured = state.power_draw_watts(trick)
            predicted = HostState(
                user_active=state.user_active,
                task_manager_open=state.task_manager_open,
                mining_load=0.0,
                baseline_load=state.reported_cpu(trick),
            ).power_draw_watts(MinerTrick.NONE)
            if measured - predicted > self.gap_watts:
                alerts += 1
        detected = (len(trace) > 0
                    and alerts / len(trace) >= self.min_alert_fraction)
        return DetectionOutcome(len(trace), alerts, detected)


def typical_day_trace(mining_load: float = 0.85,
                      hours_active: int = 8) -> List[HostState]:
    """A 24h trace at hourly resolution: office hours + one Task Manager
    check while the user is around."""
    trace = []
    for hour in range(24):
        user_active = 9 <= hour < 9 + hours_active
        task_manager = hour == 14
        trace.append(HostState(
            user_active=user_active,
            task_manager_open=task_manager,
            mining_load=mining_load,
        ))
    return trace
