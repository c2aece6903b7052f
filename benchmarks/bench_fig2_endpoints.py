"""Figure 2 — "Simple endpoint functions are efficiently supported."

Regenerates the paper's seven bars: forwarding throughput of R running
each endpoint function, normalised to raw IPv6 forwarding (the paper's
610 kpps reference).  Expected shape (paper §3.2):

* End (BPF) forwards ≈ 97 % of End (static);
* End.T (BPF) ≈ 95 % of End.T (static);
* Tag++ ≈ 3 % below End (BPF);
* Add TLV ≈ 5 % below End (BPF);
* Add TLV without JIT is ÷1.8 of the JIT'd version.

Absolute kpps differ (Python datapath vs Xeon kernel), the ordering and
rough factors must hold; the final test times the variants round by
round, asserts them and prints the normalised table alongside the
paper's values.
"""

import statistics
import time

import pytest

from repro.bench import (
    BATCH_SIZE,
    FIG2_VARIANTS,
    ResultRegistry,
    amortisation_stats,
    attach_amortisation_info,
    copy_batch,
    drive_batch,
    make_fig2_router,
)

REGISTRY = ResultRegistry("Figure 2 — endpoint functions")

# Normalised values read off the paper's Figure 2.
PAPER = {
    "baseline_ipv6": 1.00,
    "end_static": 0.97,
    "end_bpf": 0.94,
    "end_t_static": 0.91,
    "end_t_bpf": 0.87,
    "tag_increment_bpf": 0.91,
    "add_tlv_bpf": 0.89,
    "add_tlv_bpf_nojit": 0.49,
}


# Rounds of the shape test, after two warm-up rounds.
ROUNDS = 40


@pytest.mark.parametrize("variant", FIG2_VARIANTS)
def test_fig2_variant(benchmark, variant):
    node, templates = make_fig2_router(variant)

    def setup():
        return (node, copy_batch(templates)), {}

    forwarded = drive_batch(node, copy_batch(templates))
    assert forwarded == BATCH_SIZE, f"{variant}: packets were dropped"

    baseline = amortisation_stats(node)
    benchmark.pedantic(drive_batch, setup=setup, rounds=8, warmup_rounds=2)
    benchmark.extra_info["kpps"] = round(BATCH_SIZE / benchmark.stats.stats.min / 1e3, 1)
    attach_amortisation_info(benchmark, node, since=baseline)


def record_interleaved(registry: ResultRegistry) -> None:
    """Times the variants round by round and records each one's batch.

    A round drives one batch through every variant in turn.  A variant's
    cost is the median, over ``ROUNDS`` rounds, of its batch time divided
    by the ``baseline_ipv6`` batch of the same round, so a phase of the
    host that slows a whole round cancels out (timing the variants one
    after another moved the ratios between them by up to 30 % on a
    shared 2-core host).  The registry gets that cost times the
    baseline's median batch.
    """
    routers = {variant: make_fig2_router(variant) for variant in FIG2_VARIANTS}
    times = {variant: [] for variant in FIG2_VARIANTS}
    for round_ in range(2 + ROUNDS):
        for variant, (node, templates) in routers.items():
            packets = copy_batch(templates)
            start = time.perf_counter()
            forwarded = drive_batch(node, packets)
            elapsed = time.perf_counter() - start
            assert forwarded == BATCH_SIZE, f"{variant}: packets were dropped"
            if round_ >= 2:
                times[variant].append(elapsed)
    base = times["baseline_ipv6"]
    for variant, batches in times.items():
        cost = statistics.median(t / b for t, b in zip(batches, base))
        registry.record(variant, cost * statistics.median(base))


def test_fig2_shape_and_report(benchmark):
    """Asserts the figure's shape; prints the regenerated table."""
    benchmark.pedantic(record_interleaved, args=(REGISTRY,), rounds=1)
    norm = REGISTRY.normalised("baseline_ipv6")
    print(REGISTRY.report("baseline_ipv6", PAPER))

    # Static actions beat (or equal) their BPF counterparts.  A 5 %
    # tolerance absorbs scheduler noise in the host timings.
    assert norm["end_static"] >= norm["end_bpf"] * 0.95
    assert norm["end_t_static"] >= norm["end_t_bpf"] * 0.95
    # Every eBPF function stays in the same order the paper reports:
    # End >= Tag++ >= AddTLV.
    assert norm["end_bpf"] >= norm["tag_increment_bpf"] * 0.95
    assert norm["tag_increment_bpf"] >= norm["add_tlv_bpf"] * 0.95
    # Same order of magnitude as plain forwarding.  (The paper's 3 % gap
    # is specific to a kernel datapath where an eBPF invocation costs
    # ~100 ns against a ~1.6 µs forwarding path; in this Python substrate
    # both costs are in µs, so the *relative* overhead is larger — see
    # EXPERIMENTS.md.)
    assert norm["end_bpf"] > 0.05
    # The JIT'd Add TLV beats the interpreted one by more than the
    # paper's ÷1.8 — against the pre-decoded interpreter the end-to-end
    # factor measured 2.14–2.47x (median 2.32x) over 50 runs on a shared
    # 2-core host.  Program-level factors are asserted in
    # bench_jit_ablation.py.
    jit_factor = norm["add_tlv_bpf"] / norm["add_tlv_bpf_nojit"]
    assert jit_factor > 2.0, f"JIT factor regressed: {jit_factor:.2f}x"
    benchmark.extra_info["jit_factor"] = round(jit_factor, 2)
    benchmark.extra_info["normalised"] = {k: round(v, 3) for k, v in norm.items()}
