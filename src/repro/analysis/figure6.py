"""Figure 6: TASS hitrate over time (both panels).

Campaigns for phi=1 and phi=0.95, both prefix views, all protocols.
Prefix scanning survives the renumbering that destroys hitlists: the
less-specific view decays only a fraction of a percent per month.
"""

from __future__ import annotations

from itertools import product

from repro.analysis.report import format_table
from repro.bgp.table import LESS_SPECIFIC, MORE_SPECIFIC
from repro.core.simulate import simulate_campaign
from repro.core.tass import TassStrategy

__all__ = ["Figure6Result", "run_figure6", "render_figure6"]

_PHIS = (1.0, 0.95)
_VIEWS = (LESS_SPECIFIC, MORE_SPECIFIC)


class Figure6Result:
    def __init__(self, campaigns):
        self.campaigns = campaigns  # {(phi, view, protocol): Campaign}

    def decay(self, phi, view, protocol) -> float:
        return self.campaigns[(phi, view, protocol)].decay_per_month()


def run_figure6(dataset) -> Figure6Result:
    table = dataset.topology.table
    campaigns = {}
    for phi, view, protocol in product(_PHIS, _VIEWS, dataset.protocols):
        strategy = TassStrategy(table, phi=phi, view=view)
        campaigns[(phi, view, protocol)] = simulate_campaign(
            strategy, dataset.series_for(protocol)
        )
    return Figure6Result(campaigns)


def render_figure6(result: Figure6Result) -> str:
    rows = []
    for (phi, view, protocol), campaign in sorted(
        result.campaigns.items(), key=lambda kv: (-kv[0][0], kv[0][1:])
    ):
        rates = campaign.hitrates()
        rows.append(
            (
                f"{phi:.2f}",
                view,
                protocol,
                f"{rates[0]:.3f}",
                f"{rates[-1]:.3f}",
                f"{campaign.decay_per_month() * 100:+.3f}%",
            )
        )
    return format_table(
        ["phi", "view", "protocol", "month 0", "month 6", "decay/month"],
        rows,
        title="Figure 6: TASS hitrate over time",
    )
