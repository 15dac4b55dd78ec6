"""Campaign workloads of the benchmark and the configs they are run with.

Importing this module does not import `abbo`; `build_config` does, so that the
set-up time measured by the worker includes the import.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The reference-protocol parental (43 residues, a one-hot vector of 860).
PARENTAL = "EVQLVESGGGLVQPGGSLRLSCAASGFTFSSYAMSWVRQAPGK"


@dataclass(frozen=True)
class Workload:
    """A method, an oracle and a protocol shape, run as `campaigns` seeded
    campaigns per benchmark run."""

    method: str
    oracle: str
    pool: int
    init: int
    rounds: int
    batch: int = 80
    drop: int = 30
    ga: dict = field(default_factory=dict)  # GAConfig settings other than its defaults
    # Campaign time varies from seed to seed (the L-BFGS iteration count, and
    # for Kermut the number of mutation entries), so a run of short campaigns
    # averages two with different seeds instead of timing one longer campaign.
    campaigns: int = 2

    @property
    def kept(self) -> int:
        return self.batch - self.drop

    def campaign_seeds(self, seed: int) -> list[int]:
        """The campaign seeds of the run with `--seed seed`; distinct runs share none."""
        return [seed * self.campaigns + j for j in range(self.campaigns)]


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    "onehot-late": Workload(
        method="OneHot-T",
        oracle="synthetic-affinity",
        pool=400,
        init=300,
        rounds=1,
    ),
    "ckermut-stability": Workload(
        method="C-Kermut-T",
        oracle="synthetic-stability",
        pool=159,
        init=20,
        rounds=2,
        # At most 4 substitutions per design bounds the Kermut entry count;
        # uncapped, it swings campaign time by a third from seed to seed.
        # One round from 50 labels often finds nothing better than the
        # initial best; two rounds from 20 labels always did.
        ga={"max_mutations": 4},
    ),
    "igfold-blo": Workload(
        method="IgFold-BLO-T",
        oracle="synthetic-affinity",
        pool=159,
        init=50,
        # A round can find nothing better than the initial best when its fit
        # explains the labels as noise; the second round, fitted on 100
        # labels, found better in all 68 campaigns measured (README.md). One
        # two-round campaign per run keeps the run as long as two one-round
        # campaigns.
        rounds=2,
        campaigns=1,
    ),
}


def build_config(workload: Workload, seed: int):
    """The `CampaignConfig` of one campaign of the workload (one repeat, default GP)."""
    from abbo.campaign import CampaignConfig, OracleConfig, ProtocolConfig
    from abbo.gaopt import GAConfig

    return CampaignConfig(
        parental=PARENTAL,
        method=workload.method,
        seed=seed,
        protocol=ProtocolConfig(
            initial_pool_size=workload.pool,
            initial_sample_size=workload.init,
            rounds=workload.rounds,
            batch_size=workload.batch,
            drop_count=workload.drop,
            repeats=1,
        ),
        oracle=OracleConfig(kind=workload.oracle),
        ga=GAConfig(**workload.ga),
    )
