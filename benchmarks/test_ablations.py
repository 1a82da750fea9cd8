"""Ablations for the design choices DESIGN.md calls out.

These are not paper figures; they probe the sensitivity of TurboFuzz's
coverage performance to its headline parameters (jump window, mutation
probability, block-operation split).
"""

from benchmarks.conftest import print_header, scaled
from repro.campaign import CampaignSpec, build_session


def _coverage_with(options, iterations):
    session = build_session(CampaignSpec(fuzzer_options=options))
    session.run_iterations(iterations)
    mean_prevalence = sum(
        h.prevalence for h in session.history) / len(session.history)
    return session.coverage_total, mean_prevalence


def test_ablation_jump_window(benchmark):
    iterations = scaled(20, 80)

    def run():
        rows = {}
        for window in (1, 2, 8, None):
            options = {"instructions_per_iteration": 1000,
                       "jump_window_blocks": window}
            rows[window] = _coverage_with(options, iterations)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation: control-flow jump window (paper Section IV-C)")
    for window, (coverage, prevalence) in rows.items():
        label = "unbounded" if window is None else f"{window} blocks"
        print(f"window={label:>10s}: coverage={coverage:>7d} "
              f"prevalence={prevalence:.3f}")
    # The paper's motivation: unbounded jumps skip instructions, hurting
    # prevalence (executed share).
    assert rows[None][1] < rows[2][1]


def test_ablation_mutation_probability(benchmark):
    iterations = scaled(20, 80)

    def run():
        rows = {}
        for numerator in (0, 7, 15):
            options = {"instructions_per_iteration": 1000,
                       "mutation_mode_prob": (numerator, 16)}
            rows[numerator] = _coverage_with(options, iterations)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation: mutation-mode probability (default 7/16)")
    for numerator, (coverage, prevalence) in rows.items():
        print(f"p(mutation)={numerator:>2d}/16: coverage={coverage:>7d} "
              f"prevalence={prevalence:.3f}")
    assert all(coverage > 0 for coverage, _ in rows.values())


def test_ablation_block_operations(benchmark):
    iterations = scaled(20, 80)

    def run():
        rows = {}
        for label, probs in (
            ("paper 3/11/2", ((3, 16), (11, 16), (2, 16))),
            ("retain-heavy 3/5/8", ((3, 16), (5, 16), (8, 16))),
            ("delete-only 3/13/0", ((3, 16), (13, 16), (0, 16))),
        ):
            generate, delete, retain = probs
            options = {
                "instructions_per_iteration": 1000,
                "block_generate_prob": generate,
                "block_delete_prob": delete,
                "block_retain_prob": retain,
            }
            rows[label] = _coverage_with(options, iterations)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation: block operation probabilities (gen/del/retain)")
    for label, (coverage, prevalence) in rows.items():
        print(f"{label:22s}: coverage={coverage:>7d} "
              f"prevalence={prevalence:.3f}")
    assert all(coverage > 0 for coverage, _ in rows.values())
