"""Integration tests for the §5 update strategies on a built system."""

import dataclasses

import numpy as np
import pytest

from repro.core import HPCGPTSystem, SMALL_PRESET
from repro.knowledge.corpus import KnowledgeChunk


@pytest.fixture(scope="module")
def system():
    cfg = dataclasses.replace(SMALL_PRESET, use_cache=False)
    sys_ = HPCGPTSystem(cfg)
    sys_.finetuned("l2")
    return sys_


NEW_CHUNK = KnowledgeChunk(
    text=("An MLPerf Training v4.0 submission. Submitter: NVIDIA. "
          "System: dgxb200_n8. Processor: Intel(R) Xeon(R) Platinum 8570. "
          "Accelerator: NVIDIA B200-SXM6-192GB. Software: PyTorch 2.3."),
    source="mlperf-table", task="mlperf", category="System",
    facts={"System": "dgxb200_n8", "Accelerator": "NVIDIA B200-SXM6-192GB",
           "Software": "PyTorch 2.3", "Submitter": "NVIDIA",
           "Processor": "Intel(R) Xeon(R) Platinum 8570", "Benchmark": "GPT-3"},
)


class TestRetrievalStrategy:
    def test_new_fact_answerable_without_retraining(self, system):
        system.index_documents([NEW_CHUNK])
        ans = system.retrieval_answerer().answer("What is the System if the Accelerator used is "
                         "NVIDIA B200-SXM6-192GB and the Software used is PyTorch 2.3?")
        assert ans is not None and "dgxb200_n8" in ans

    def test_existing_knowledge_still_retrieved(self, system):
        rag = system.retrieval_answerer()
        ans = rag.answer("What is the System if the Accelerator used is "
                         "NVIDIA H100-SXM5-80GB and the Software used is "
                         "MXNet NVIDIA Release 23.04?")
        assert ans is not None and "dgxh100_n64" in ans


class TestCheckpointResume:
    def test_update_changes_weights_and_recalibrates(self, system):
        from repro.datagen import DataCollectionPipeline

        model = system.finetuned("l2")
        before = {k: v.copy() for k, v in model.state_dict().items()}
        t_before = system.threshold("l2")

        fresh = DataCollectionPipeline().collect_task1([NEW_CHUNK], targets={"System": 2})
        assert len(fresh) >= 1
        system.update_with(fresh.records, epochs=1)

        after = system.finetuned("l2").state_dict()
        changed = any(not np.allclose(before[k], after[k]) for k in before)
        assert changed
        assert np.isfinite(system.threshold("l2"))
        # The calibration may move; it just has to remain a finite float.
        assert isinstance(t_before, float)
