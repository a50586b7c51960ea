"""E5 — Table 5, C/C++ block: all ten detectors on the 177-program
evaluation suite (88 race / 89 race-free).

The first invocation builds the full system (pretraining + SFT of both
HPC-GPT models, cached under ``.repro_cache/``); the benchmark then
times the shared-trace evaluation of the four tool detectors.
"""

from repro.eval import render_table5

from benchmarks._shared import (
    eval_suite, harness, paper_shape, system, table5_output, write_out,
)


def test_table5_c(benchmark):
    out = table5_output()
    write_out("table5_c.txt", render_table5(out.rows, "C/C++"))

    rows = {r.tool: r for r in out.rows if r.language == "C/C++"}

    # Composition sanity (preset-independent).
    total = rows["LLOV"].counts.total
    assert total == 177

    # Paper shape assertions (§4.7.2, Table 5 C/C++) — paper preset only:
    # the small preset's tiny models make these orderings seed-noise.
    if paper_shape():
        # 1. ThreadSanitizer: best precision/specificity among the four tools.
        tools = ["LLOV", "Intel Inspector", "ROMP", "Thread Sanitizer"]
        assert rows["Thread Sanitizer"].precision == max(rows[t].precision for t in tools)
        # 2. The LLM token budget: TSR = 163/177 = 0.9209 for every LLM method.
        for llm in ("GPT-3.5", "GPT-4", "LLaMa", "LLaMa2", "HPC-GPT (L1)", "HPC-GPT (L2)"):
            assert abs(rows[llm].tsr - 163 / 177) < 1e-6, llm
        # 3. Base LLaMA models sit near chance; HPC-GPT far above them.
        for base in ("LLaMa", "LLaMa2"):
            assert rows[base].accuracy < 0.65
        for tuned in ("HPC-GPT (L1)", "HPC-GPT (L2)"):
            assert rows[tuned].accuracy > rows["GPT-4"].accuracy
            assert rows[tuned].accuracy > rows["LLaMa2"].accuracy + 0.2
        # 4. GPT-4 beats GPT-3.5.
        assert rows["GPT-4"].accuracy > rows["GPT-3.5"].accuracy

    # Benchmark: the four-tool evaluation over the shared trace cache.
    from repro.detectors import build_tool_detectors

    h = harness()
    for spec in eval_suite().by_language("C/C++"):
        h.traces_for(spec)  # warm the cache outside the timed region

    def run_tools():
        return h.run(build_tool_detectors(), languages=("C/C++",))

    benchmark.pedantic(run_tools, rounds=1, iterations=1)
