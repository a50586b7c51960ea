"""§5 — updating HPC-GPT with the latest data: both strategies.

The paper sketches two update paths when new datasets/models appear:

1. **checkpoint-resume** — continue fine-tuning the current model on
   the newly collected instruction data;
2. **retrieval augmentation** — index new text chunks in a semantic
   vector store (``HPCGPTSystem.index_documents``) and match prompts
   against them, no retraining.

This example exercises both against a freshly invented MLPerf v4.0
submission that did not exist at training time.

Usage::

    python examples/update_with_new_data.py
"""

from repro.core import HPCGPTSystem, SMALL_PRESET
from repro.datagen import DataCollectionPipeline
from repro.knowledge.corpus import KnowledgeChunk

NEW_ROW = KnowledgeChunk(
    text=("An MLPerf Training v4.0 submission for the GPT-3 benchmark. "
          "Submitter: NVIDIA. System: dgxb200_n8. "
          "Processor: Intel(R) Xeon(R) Platinum 8570. "
          "Accelerator: NVIDIA B200-SXM6-192GB. Software: PyTorch 2.3."),
    source="mlperf-table",
    task="mlperf",
    category="System",
    facts={
        "Submitter": "NVIDIA", "System": "dgxb200_n8",
        "Processor": "Intel(R) Xeon(R) Platinum 8570",
        "Accelerator": "NVIDIA B200-SXM6-192GB", "Software": "PyTorch 2.3",
        "Benchmark": "GPT-3",
    },
)

QUESTION = ("What is the System if the Accelerator used is NVIDIA B200-SXM6-192GB "
            "and the Software used is PyTorch 2.3?")


def main() -> None:
    print("Building HPC-GPT (small preset)...")
    system = HPCGPTSystem(SMALL_PRESET)
    system.finetuned("l2")

    print("\nQuestion about data newer than the training set:")
    print(" ", QUESTION)

    print("\n[strategy 0] frozen model:", system.answer(QUESTION)[:90])

    print("\n[strategy 1] retrieval augmentation (no retraining):")
    system.index_documents([NEW_ROW])
    print("  ", system.retrieval_answerer().answer(QUESTION))

    print("\n[strategy 2] checkpoint-resume fine-tuning:")
    pipeline = DataCollectionPipeline()
    fresh = pipeline.collect_task1([NEW_ROW], targets={"System": 3})
    print(f"  collected {len(fresh)} new instruction instances from the new row")
    system.update_with(fresh.records, epochs=2)
    print("  resumed training complete; updated answer:",
          system.answer(QUESTION)[:90])


if __name__ == "__main__":
    main()
