"""Which end-to-end metric each per-layer metric should move, and on which workload.

Written into every result record next to the workload's `why` from
BENCHMARK.json, so that a proposed change can cite a per-layer metric by name
together with the end-to-end metric and workload it is expected to move.
"""

_VERIFY = ["verify_dense", "sweep_small"]

LAYER_MAP = {
    "ratq.mat_mul.s": {
        "moves": ["wall_s", "throughput_per_s"], "workloads": _VERIFY,
        "note": "inside penrose_check and rank_certificate_check; 0 on gen_render",
    },
    "ratq.mat_mul.calls": {"moves": ["wall_s", "throughput_per_s"], "workloads": _VERIFY, "note": "0 on gen_render"},
    "ratq.mat_mul.mults": {
        "moves": ["wall_s", "throughput_per_s"], "workloads": _VERIFY,
        "note": "sum of rows*inner*cols over calls, from the operand shapes",
    },
    "ratq.self_s": {
        "moves": ["wall_s", "throughput_per_s", "peak_rss_mb"], "workloads": ["gen_render"],
        "note": "constructor coercion dominates gen inverse/pinv",
    },
    "ratq.entries_built": {
        "moves": ["wall_s", "throughput_per_s", "peak_rss_mb"], "workloads": ["gen_render"],
        "note": "entries of every MatrixQ/VectorQ constructed, once per object",
    },
    "oracle.self_s": {"moves": ["wall_s", "throughput_per_s"], "workloads": _VERIFY, "note": "0 on gen_render"},
    "oracle.<fn>.s": {
        "moves": ["wall_s", "throughput_per_s"], "workloads": _VERIFY,
        "note": "inclusive, for bareiss_det, rank_exact, inverse_exact, inertia_exact, penrose_check, "
                "is_irreducible (literal power for n <= 12: sweep_small), power_iteration_rho, "
                "rank_certificate_check; 0 on gen_render",
    },
    "oracle.<fn>.calls": {"moves": ["wall_s"], "workloads": _VERIFY, "note": "0 on gen_render"},
    "oracle.repeat_calls": {
        "moves": ["wall_s"], "workloads": ["verify_dense"],
        "note": "calls of one oracle function with an equal argument within one n (inverse_exact(E) twice per invertible n)",
    },
    "oracle.unique_ratio": {"moves": ["wall_s"], "workloads": ["verify_dense"], "note": "1 - repeat_calls / calls; 1 when there are no calls"},
    "closedform.self_s": {"moves": ["wall_s", "throughput_per_s"], "workloads": ["gen_render"], "note": "under 2% of verify_dense"},
    "closedform.builds": {"moves": ["wall_s"], "workloads": ["gen_render"], "note": "calls of closedform functions returning a matrix or vector"},
    "closedform.repeat_builds": {
        "moves": ["wall_s"], "workloads": ["gen_render", "verify_dense"],
        "note": "same constructor and arguments within one operation (laplacian_tilde twice per invertible n)",
    },
    "circulant.self_s": {"moves": ["wall_s", "throughput_per_s"], "workloads": ["gen_render"], "note": ""},
    "circulant.circ_mul.s": {"moves": ["wall_s"], "workloads": _VERIFY, "note": "inclusive; gen does not call it"},
    "graphs.self_s": {"moves": ["wall_s"], "workloads": ["sweep_small"], "note": "BFS and the definitional E; gen does not call it"},
    "checks.self_s": {
        "moves": ["wall_s", "throughput_per_s"], "workloads": _VERIFY,
        "note": "the registry and the comparison: registry time not covered by another layer",
    },
    "checks.context_build_s": {
        "moves": ["wall_s"], "workloads": _VERIFY,
        "note": "VerifyContext cached-property builds, reported apart from the checks that trigger them",
    },
    "cli.render_s": {"moves": ["wall_s", "throughput_per_s"], "workloads": ["gen_render", "sweep_small"], "note": "outermost render calls, inclusive"},
    "trace.overhead_s": {"moves": [], "workloads": ["verify_dense", "sweep_small", "gen_render"], "note": "traced wall_s minus untraced wall_s of the same operations"},
}
