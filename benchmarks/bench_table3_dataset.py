"""Table III — dataset summary (miners, ancillaries, sources).

Paper: 1,230,033 executables = 1,017,110 miners + 212,923 ancillaries;
VT is the biggest source, dynamic analysis the biggest resource.
"""

from repro.analysis import table3_dataset
from repro.analysis.sources import (
    exclusive_counts,
    source_coverage,
    source_overlap_matrix,
)
from repro.reporting.render import format_table


def bench_table3_dataset(benchmark, bench_result):
    rows = benchmark(table3_dataset, bench_result)
    assert rows["Miner Binaries"] > rows["Ancillary Binaries"] > 0
    assert rows["ALL EXECUTABLES"] == (rows["Miner Binaries"]
                                       + rows["Ancillary Binaries"])
    # miner:ancillary ratio near the paper's ~4.8:1
    ratio = rows["Miner Binaries"] / rows["Ancillary Binaries"]
    assert 2.0 < ratio < 12.0
    # feeds overlap (Appendix C): per-source counts exceed the total,
    # exactly like 956K (VT) + 629K (PaloAlto) > 1.23M in Table III
    per_source = (rows.get("Virus Total", 0)
                  + rows.get("Palo Alto Networks", 0))
    assert per_source > rows["ALL EXECUTABLES"]
    print()
    print(format_table(["category", "count"],
                       [[k, v] for k, v in rows.items()],
                       title="Table III: dataset"))


def bench_appendix_c_source_overlap(benchmark, bench_world, bench_result):
    """Appendix C: the four main feeds overlap, VT carries the most
    kept samples, and the VT / Palo Alto pair shares the most."""
    def overlap():
        return (source_coverage(bench_world, bench_result),
                source_overlap_matrix(bench_world, bench_result),
                exclusive_counts(bench_world, bench_result))

    coverage, pairs, exclusive = benchmark(overlap)
    assert coverage["Virus Total"] == max(coverage.values())
    assert all(0.0 < share <= 1.0 for share in coverage.values())
    assert set(max(pairs, key=pairs.get)) == {"Palo Alto Networks",
                                              "Virus Total"}
    # some kept samples come from one feed only, most from several
    assert 0 < sum(exclusive.values()) < len(bench_result.records)
    print()
    print(format_table(["feed", "coverage", "exclusive"],
                       [[feed, f"{share:.1%}", exclusive.get(feed, 0)]
                        for feed, share in coverage.items()],
                       title="Appendix C: feed coverage"))
