"""Staged rollout study: canary-first vs big-bang patch campaigns.

Real fleets rarely patch everything at once: a canary slice goes first,
then a ramp, then the full fleet.  This walkthrough compares three
rollout strategies for the paper's designs under the campaign-aware
timeline subsystem (`evaluate_timelines(..., campaign=...)`):

1. **big-bang** — every server patches at full rate from t = 0 (the
   paper's stationary model; byte-identical to no campaign at all),
2. **canary-then-fleet** — 48 h at 10% patch throughput, a 120 h ramp
   at half rate, then the full fleet,
3. **canary-by-count** — at most one host patching concurrently until a
   quarter of the fleet is expected patched (a completion-fraction
   trigger), then everything.

Each server's patch and up/down probabilities are carried across the
phase boundaries in closed form, so a staged curve costs no more than a
stationary one.  The trade-off the tables show: staging softens
the availability dip of the patch wave but stretches the security
exposure window — the canary fleet stays unpatched (and attackable)
for longer.

Usage::

    python examples/staged_rollout.py
"""

from __future__ import annotations

from repro.enterprise import paper_designs
from repro.evaluation import default_time_grid, evaluate_timelines
from repro.patching import BIG_BANG, CANARY_THEN_FLEET, CampaignPhase, PatchCampaign

CANARY_BY_COUNT = PatchCampaign(
    name="canary-by-count",
    phases=(
        CampaignPhase(
            name="canary",
            rate_multiplier=1.0,
            completion_fraction=0.25,
            canary_hosts=1,
        ),
        CampaignPhase(name="fleet", rate_multiplier=1.0),
    ),
)

CAMPAIGNS = (BIG_BANG, CANARY_THEN_FLEET, CANARY_BY_COUNT)


def spark(values, lo, hi) -> str:
    """A one-line ASCII bar for a value range."""
    blocks = " .:-=+*#%@"
    span = max(hi - lo, 1e-12)
    return "".join(
        blocks[min(int((value - lo) / span * (len(blocks) - 1)), len(blocks) - 1)]
        for value in values
    )


def main() -> None:
    designs = paper_designs()
    times = default_time_grid(1440.0, 25)  # two monthly cycles, 60 h steps

    print("staged rollouts under test:")
    for campaign in CAMPAIGNS:
        print(f"  {campaign}")

    by_campaign = {
        campaign: evaluate_timelines(designs, times, campaign=campaign)
        for campaign in CAMPAIGNS
    }

    print("\n[1] campaign progress: expected unpatched fraction over time")
    print(f"    grid 0..{times[-1]:g} h, {len(times)} points; darker = more exposed")
    for campaign in CAMPAIGNS:
        timeline = by_campaign[campaign][0]
        print(
            f"    {campaign.name:<18} |{spark(timeline.unpatched_fraction, 0.0, 1.0)}|"
        )

    print("\n[2] mean time to patch completion (hours), per design")
    header = "".join(f"{campaign.name:>20}" for campaign in CAMPAIGNS)
    print(f"    {'design':<34}{header}")
    for position, design in enumerate(designs):
        cells = "".join(
            f"{by_campaign[campaign][position].mean_time_to_completion:20.1f}"
            for campaign in CAMPAIGNS
        )
        print(f"    {design.label:<34}{cells}")

    print("\n[3] the trade-off for the first paper design")
    first = designs[0]
    print(f"    design: {first.label}")
    print(
        f"    {'campaign':<18}{'min COA':>12}{'COA @720 h':>12}"
        f"{'ASP @720 h':>12}{'P(done) @720 h':>16}"
    )
    mid = len(times) // 2  # t = 720 h on the two-cycle grid
    for campaign in CAMPAIGNS:
        timeline = by_campaign[campaign][0]
        asp = timeline.security_curve("ASP")
        print(
            f"    {campaign.name:<18}{timeline.min_coa:12.6f}"
            f"{timeline.coa[mid]:12.6f}{asp[mid]:12.4f}"
            f"{timeline.completion_probability[mid]:16.4f}"
        )

    print("\n[4] resolved phase starts (hours) for the first design")
    for campaign in CAMPAIGNS:
        timeline = by_campaign[campaign][0]
        starts = ", ".join(f"{start:g}" for start in timeline.phase_starts)
        print(f"    {campaign.name:<18} {starts}")

    print(
        "\nReading: staging defers the patch wave - mid-campaign COA stays"
        "\nhigher - but leaves the fleet exposed for longer (higher ASP at"
        "\nt = 720 h, later completion).  The completion-fraction canary"
        "\nadapts its boundary to each design's size: larger fleets ramp"
        "\nlater (phase starts differ per design)."
    )


if __name__ == "__main__":
    main()
