"""HoPP core: hardware modules (HPD, RPT) and the software stack
(training framework, policy engine, execution engine)."""

from repro.hopp.eviction import StreamAwareEvictionAdvisor
from repro.hopp.executor import ExecutionEngine
from repro.hopp.hugepage import HugePageBatcher
from repro.hopp.learned import LearnedStridePredictor, LearnedTrainer
from repro.hopp.prototype import PrototypeDataPlane
from repro.hopp.hardware_model import SramEstimate, SramModel
from repro.hopp.hpd import HotPageDetector, MultiChannelHpd
from repro.hopp.policy import PolicyConfig, PolicyEngine
from repro.hopp.rpt import (
    ReversePageTable,
    RptCache,
    rpt_bandwidth_overhead,
)
from repro.hopp.stt import StreamTrainingTable
from repro.hopp.system import HoppConfig, HoppDataPlane
from repro.hopp.three_tier import ThreeTierTrainer, TierConfig

__all__ = [
    "StreamAwareEvictionAdvisor",
    "ExecutionEngine",
    "HugePageBatcher",
    "LearnedStridePredictor",
    "LearnedTrainer",
    "PrototypeDataPlane",
    "SramEstimate",
    "SramModel",
    "HotPageDetector",
    "MultiChannelHpd",
    "PolicyConfig",
    "PolicyEngine",
    "ReversePageTable",
    "RptCache",
    "rpt_bandwidth_overhead",
    "StreamTrainingTable",
    "HoppConfig",
    "HoppDataPlane",
    "ThreeTierTrainer",
    "TierConfig",
]
