"""XUNI fixture: cross-module unit bugs the per-file pass cannot see."""

from repro import units
from repro.unitdefs import capped_transfer_time, transfer_time


def eta_ms(size_mb, bw_mbps):
    # XUNI001: transfer_time returns seconds, the target declares ms.
    wait_ms = transfer_time(size_mb, bw_mbps)
    return wait_ms


def wrong_param(delay_ms, bw_mbps):
    # XUNI002: an ms value bound to transfer_time's size_mb parameter.
    return transfer_time(delay_ms, bw_mbps)


def wrong_helper_arg(size_mb):
    # XUNI002: units.gb takes GB, this argument is MB.
    return units.gb(size_mb)


def capped_eta_ms(size_mb, bw_mbps):
    # XUNI001: the min comparison passes transfer time's seconds through.
    wait_ms = capped_transfer_time(size_mb, bw_mbps, 60.0)
    return wait_ms
