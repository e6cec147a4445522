"""Correctness gate: artifact digests and independent checks of every record.

All of it runs outside the timed section.
"""

from __future__ import annotations

import hashlib

# Records with n above this skip the from-scratch minimality check: it
# replays the orbit one step at a time in Python.
MINIMALITY_MAX_N = 25_000


def digest(reports) -> str:
    """sha256 over every artifact of a repetition, in experiment order."""
    h = hashlib.sha256()
    for i, rep in enumerate(reports):
        for fname in sorted(rep.artifacts):
            h.update(f"{i}\0{fname}\0".encode())
            h.update(rep.artifacts[fname].encode())
            h.update(b"\0")
    return h.hexdigest()


class RecordChecker:
    """Checks each record of a report; caches the clouds it builds."""

    def __init__(self, cg):
        self._cg = cg
        self._clouds = {}

    def _cloud(self, cfg, ifs):
        key = (cfg.ifs_maps, cfg.resolution, cfg.point_budget)
        if key not in self._clouds:
            self._clouds[key] = self._cg.build_cloud(ifs, cfg.resolution,
                                                     cfg.point_budget)
        return self._clouds[key]

    def failures(self, report) -> list:
        """One bool per record: True when the record fails a check.

        A record fails when it hit the cap, breaks n + 1 >= packing(eps)
        against its own covering estimate, or (if n is small enough and the
        cloud is rebuilt outside the harness) is not the exact minimum:
        coverage must hold at n and not at n - 1.
        """
        cg, cfg = self._cg, report.config
        covers = {c.eps: c for c in report.covers}
        ifs = cfg.build_ifs()
        cloud = None if cfg.exact_attractor else self._cloud(cfg, ifs)

        def holds(rec, n):
            driver = cg.make_driver(cfg, ifs, report.schedule)
            return cg.coverage_holds(ifs, driver, rec.x0, rec.eps, cloud, n)

        out = []
        for rec in report.records:
            bad = rec.n is None or not cg.key_inequality_check(rec, covers[rec.eps])
            if not bad and cloud is not None and 0 < rec.n <= MINIMALITY_MAX_N:
                bad = not holds(rec, rec.n) or holds(rec, rec.n - 1)
            out.append(bad)
        return out
