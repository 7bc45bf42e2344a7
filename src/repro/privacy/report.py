"""A consolidated privacy report for one protocol run.

Brings every analysis in this package to bear on a single
:class:`~repro.core.results.ProtocolResult` and renders the answer to "what
did this run expose, and to whom?" — per-node LoP and its spectrum band,
coalition exposure, m-anonymity of every circulated value, and (for max
runs) the Bayesian information gain of the strongest coalition.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.results import ProtocolResult
from .adversary import coalition_lop
from .distribution import coalition_posterior
from .groups import anonymity_size
from .lop import lop_table
from .ranges import node_range_lop
from .spectrum import SpectrumLevel, classify


@dataclass(frozen=True)
class NodePrivacyRow:
    """One node's exposure summary."""

    node: str
    lop: float
    spectrum: SpectrumLevel
    coalition_lop: float
    information_gain_bits: float | None
    range_lop: float = 0.0


@dataclass(frozen=True)
class PrivacyReport:
    """Everything the run exposed, per node and in aggregate."""

    protocol: str
    n_nodes: int
    rounds: int
    average: float
    worst_case: float
    rows: tuple[NodePrivacyRow, ...]
    #: m-anonymity size of each non-public value that ever circulated.
    value_anonymity: dict[float, int]

    def render(self) -> str:
        lines = [
            f"privacy report: {self.protocol} over {self.n_nodes} nodes, "
            f"{self.rounds} rounds",
            f"  average LoP {self.average:.4f}   worst-case LoP {self.worst_case:.4f}",
            "",
            f"  {'node':<12} {'LoP':>8} {'spectrum':<20} {'coalition':>10} "
            f"{'range':>7} {'coal. bits':>11}",
        ]
        for row in self.rows:
            bits = f"{row.information_gain_bits:.2f}" if row.information_gain_bits is not None else "-"
            lines.append(
                f"  {row.node:<12} {row.lop:>8.4f} {row.spectrum.value:<20} "
                f"{row.coalition_lop:>10.4f} {row.range_lop:>7.3f} {bits:>11}"
            )
        exposed = {
            value: size for value, size in self.value_anonymity.items() if size <= 1
        }
        lines.append("")
        if exposed:
            lines.append(
                "  values with an unambiguous emitter (may be noise — the "
                f"observer cannot tell): {sorted(exposed)}"
            )
        else:
            lines.append("  every circulated value keeps an anonymity set > 1 "
                         "or is public")
        return "\n".join(lines)


def privacy_report(
    result: ProtocolResult, *, with_posteriors: bool | None = None
) -> PrivacyReport:
    """Build the consolidated report.

    ``with_posteriors`` controls the (comparatively expensive) Bayesian
    column; the default computes it only for k = 1 runs on integral domains,
    where the model is defined.
    """
    if with_posteriors is None:
        with_posteriors = result.query.k == 1 and result.query.domain.integral
    table = lop_table(result)
    rows = []
    for node in result.ring_order:
        gain: float | None = None
        if with_posteriors:
            report = coalition_posterior(result, node)
            gain = report.entropy_reduction_bits
        lop = table.node_lop(node)
        range_exposure = 0.0
        if result.query.domain.integral:
            range_exposure = node_range_lop(result, node)
        rows.append(
            NodePrivacyRow(
                node=node,
                lop=lop,
                spectrum=classify(min(1.0, lop + 1.0 / result.n_nodes), result.n_nodes),
                coalition_lop=coalition_lop(result, node),
                information_gain_bits=gain,
                range_lop=range_exposure,
            )
        )

    seen: set[float] = set()
    anonymity: dict[float, int] = {}
    for observation in result.event_log:
        for value in observation.vector:
            if value not in seen:
                seen.add(value)
                anonymity[value] = anonymity_size(result, value)

    return PrivacyReport(
        protocol=result.protocol,
        n_nodes=result.n_nodes,
        rounds=result.rounds_executed,
        average=table.average(),
        worst_case=table.worst_case(),
        rows=tuple(rows),
        value_anonymity=anonymity,
    )
