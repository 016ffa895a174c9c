"""Rate vs output error: repeated 15->1, check schedules, constant-overhead floor.

Builds the comparison dataset at the standard initial error 0.1 and prints the
three series. The check-schedule points use the two finite-size design points
(three 15->1 rounds feeding [[149,117,5]], four feeding [[8104,8002,9]]).
"""
from msdistill.comparison import figure2_dataset
from msdistill.inner_codes import CssCodeParams
from msdistill.pipeline import ProtocolSpec


def main() -> None:
    specs = [
        ProtocolSpec(rounds, CssCodeParams(n, k, d), k**d)
        for rounds, (n, k, d) in [(3, (149, 117, 5)), (4, (8104, 8002, 9))]
    ]

    rows, metadata = figure2_dataset(pre_rounds_max=6, pipeline_specs=specs)

    print(f"{'series':<18} {'label':<8} {'-log10(eps_out)':>16} {'log10(rate)':>12}")
    for row in rows:
        print(
            f"{row.series:<18} {row.label:<8} {row.neg_log10_eps:>16.3f} "
            f"{row.log10_rate:>12.4f}"
        )

    print()
    print("conventions / provenance:")
    for key, value in sorted(metadata.items()):
        print(f"  {key}: {value}")
    print()
    print(
        "Reading the table: repeated 15->1 gains ~3x in -log10(eps) per round\n"
        "but pays 15x in rate, while a single check-schedule round on a large\n"
        "inner code reaches far smaller output error at a rate that stays\n"
        "above the constant-overhead floor."
    )


if __name__ == "__main__":
    main()
